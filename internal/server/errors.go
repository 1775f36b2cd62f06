package server

import (
	"context"
	"errors"
	"strings"
)

// Typed localization failures returned by Database.Locate. They cross the
// wire as stable one-byte codes in the msgError payload, so a networked
// caller can errors.Is against them instead of matching message text.
var (
	// ErrEmptyDatabase: the server has no ingested mappings to match
	// against.
	ErrEmptyDatabase = errors.New("server: database is empty")
	// ErrTooFewMatches: fewer than three query keypoints survived LSH
	// retrieval and distance gating (the paper's failure mode 1/2 —
	// featureless frames or unmapped areas).
	ErrTooFewMatches = errors.New("server: too few keypoint matches")
	// ErrNoConsensus: candidate 3D points formed no spatial cluster
	// (failure mode 3 — matches scattered across the venue).
	ErrNoConsensus = errors.New("server: no spatial consensus among matches")
)

// Request-lifecycle failures. Like the localization sentinels they travel
// as stable wire codes, so errors.Is works identically for an in-process
// Database call and a networked Query.
var (
	// ErrOverloaded: the server's dispatch queue was full and the request
	// was shed before any work was done. Always safe to retry (after
	// backoff) — the request never executed.
	ErrOverloaded = errors.New("server: overloaded, request shed")
	// ErrShuttingDown: the server is draining; it finishes in-flight work
	// but accepts nothing new. Not retryable against the same server.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrDeadlineExceeded: the request's deadline expired before the
	// pipeline finished; the server abandoned the remaining work.
	// errors.Is(err, context.DeadlineExceeded) also matches, locally and
	// across the wire.
	ErrDeadlineExceeded error = &ctxSentinel{msg: "server: request deadline exceeded", match: context.DeadlineExceeded}
	// ErrCanceled: the request was canceled (client cancel message,
	// connection death, or a canceled local context) mid-pipeline.
	// errors.Is(err, context.Canceled) also matches.
	ErrCanceled error = &ctxSentinel{msg: "server: request canceled", match: context.Canceled}
	// ErrNotPrimary: the request needs the primary (a write sent to a
	// replica, or a replica read past its staleness bound) and this server
	// is not it. The concrete error is a *NotPrimaryError whose Primary
	// field, when non-empty, is the address to redirect to; the client
	// follows it automatically.
	ErrNotPrimary = errors.New("server: not the primary")
	// ErrProtocolVersion: the server refused the connection preamble — the
	// peer speaks another wire-protocol version (or none). It is the one
	// error a server sends unprompted, as an id-0 frame before closing, and
	// it fails every call on that connection.
	ErrProtocolVersion = errors.New("server: unsupported protocol version")
)

// NotPrimaryError is the concrete redirect error behind ErrNotPrimary. It
// crosses the wire as code errCodeNotPrimary with the primary's advertised
// address as the payload message, so the redirect survives serialization.
type NotPrimaryError struct {
	// Primary is the current primary's address as last known by the
	// rejecting server; empty when the fleet has no primary (mid-failover).
	Primary string
}

func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return "server: not the primary"
	}
	return "server: not the primary (primary is " + e.Primary + ")"
}

// Is makes errors.Is(err, ErrNotPrimary) match any redirect error.
func (e *NotPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// ctxSentinel is a sentinel that additionally matches the context error it
// stands for, so callers using the standard library's identities keep
// working: errors.Is(err, context.DeadlineExceeded) is true for a
// wire-decoded ErrDeadlineExceeded.
type ctxSentinel struct {
	msg   string
	match error
}

func (e *ctxSentinel) Error() string { return e.msg }

func (e *ctxSentinel) Is(target error) bool { return target == e.match }

// ctxError converts a non-nil context error into its typed request
// lifecycle sentinel; other errors pass through.
func ctxError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// Wire error codes: the first byte of every msgError payload, followed by
// the human-readable message. Codes are append-only and stable across
// protocol versions.
const (
	errCodeGeneric          byte = 0
	errCodeEmptyDatabase    byte = 1
	errCodeTooFewMatches    byte = 2
	errCodeNoConsensus      byte = 3
	errCodeOverloaded       byte = 4
	errCodeDeadlineExceeded byte = 5
	errCodeShuttingDown     byte = 6
	errCodeCanceled         byte = 7
	errCodeNotPrimary       byte = 8
	errCodeProtocolVersion  byte = 9
)

// errorCode maps a server-side error to its wire code. Raw context errors
// are classified alongside the typed sentinels so a handler can return
// ctx.Err() unconverted and still cross the wire typed.
func errorCode(err error) byte {
	switch {
	case errors.Is(err, ErrEmptyDatabase):
		return errCodeEmptyDatabase
	case errors.Is(err, ErrTooFewMatches):
		return errCodeTooFewMatches
	case errors.Is(err, ErrNoConsensus):
		return errCodeNoConsensus
	case errors.Is(err, ErrOverloaded):
		return errCodeOverloaded
	case errors.Is(err, ErrShuttingDown):
		return errCodeShuttingDown
	case errors.Is(err, context.DeadlineExceeded):
		return errCodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return errCodeCanceled
	case errors.Is(err, ErrNotPrimary):
		return errCodeNotPrimary
	case errors.Is(err, ErrProtocolVersion):
		return errCodeProtocolVersion
	default:
		return errCodeGeneric
	}
}

// sentinelFor is errorCode's inverse on the client; generic and unknown
// codes have no sentinel.
func sentinelFor(code byte) error {
	switch code {
	case errCodeEmptyDatabase:
		return ErrEmptyDatabase
	case errCodeTooFewMatches:
		return ErrTooFewMatches
	case errCodeNoConsensus:
		return ErrNoConsensus
	case errCodeOverloaded:
		return ErrOverloaded
	case errCodeDeadlineExceeded:
		return ErrDeadlineExceeded
	case errCodeShuttingDown:
		return ErrShuttingDown
	case errCodeCanceled:
		return ErrCanceled
	case errCodeNotPrimary:
		return ErrNotPrimary
	case errCodeProtocolVersion:
		return ErrProtocolVersion
	default:
		return nil
	}
}

// encodeErrorPayload builds a msgError payload: [code][message]. The
// not-primary code repurposes the message bytes as the redirect address —
// structured data, not prose — so the client can reconnect without parsing
// human text.
func encodeErrorPayload(err error) []byte {
	msg := err.Error()
	var npe *NotPrimaryError
	if errors.As(err, &npe) {
		msg = npe.Primary
	}
	buf := make([]byte, 1+len(msg))
	buf[0] = errorCode(err)
	copy(buf[1:], msg)
	return buf
}

// decodeErrorPayload reconstructs the remote error, re-attaching the typed
// sentinel so errors.Is works across the wire.
func decodeErrorPayload(p []byte) error {
	if len(p) == 0 {
		return errRemote{msg: "unspecified error"}
	}
	if p[0] == errCodeNotPrimary {
		return &NotPrimaryError{Primary: string(p[1:])}
	}
	return errRemote{code: p[0], msg: string(p[1:])}
}

// errRemote wraps a server-reported error.
type errRemote struct {
	code byte
	msg  string
}

func (e errRemote) Error() string {
	// Sentinel messages already carry a "server: " prefix; don't stutter.
	if strings.HasPrefix(e.msg, "server: ") {
		return "visualprint " + e.msg
	}
	return "visualprint server: " + e.msg
}

// Unwrap exposes the typed sentinel matching the wire code, if any.
func (e errRemote) Unwrap() error { return sentinelFor(e.code) }

// IsRemote reports whether err was returned by the server (as opposed to a
// transport failure).
func IsRemote(err error) bool {
	var r errRemote
	return errors.As(err, &r)
}
