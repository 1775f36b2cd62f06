// Package repl runs the replication fleet: each server process embeds a
// Node that, whenever its role is replica, tails the primary's WAL and
// applies it locally, and an external Sentinel watches the fleet and
// promotes the most-caught-up replica when the primary dies.
//
// The data path is pull-based. A replica long-polls ReplFetch(from, ...)
// where from is its own durable record count — the request position doubles
// as the acknowledgement, so the primary's per-replica ack table needs no
// separate message. Fetched records are raw primary WAL payloads re-applied
// through the seq-tagged ingest path, whose deterministic re-encoding makes
// the replica's WAL — and therefore its Locate results — byte-identical to
// the primary's.
//
// A replica whose position the primary can no longer serve (records folded
// into a snapshot and compacted away), or whose own log may diverge from
// the fleet's history (it used to be the primary), restarts via full-sync:
// snapshot transfer, wipe, install, then tail from the snapshot's offset.
package repl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"visualprint/internal/obs"
	"visualprint/internal/server"
)

// NodeConfig configures a fleet node's replication loop.
type NodeConfig struct {
	// DB is the node's database (must be a shard / seq-mode database).
	DB *server.Database
	// State is the node's replication control block, shared with the
	// serving layer (which gates writes and reads on its role).
	State *server.ReplState
}

// The replication loop's timings.
const (
	// fetchMax bounds records per fetch batch.
	fetchMax = 512
	// fetchWait is the long-poll window when caught up.
	fetchWait = 500 * time.Millisecond
	// dialTimeout bounds connecting to the primary.
	dialTimeout = 2 * time.Second
	// backoff is the pause after a failed dial or broken stream before
	// retrying.
	backoff = 200 * time.Millisecond
)

// Node is the per-process replication runner. While the node's role is
// replica it tails the primary; while primary (or unconfigured) it idles
// waiting for a role change. Promotion and demotion arrive through the
// shared ReplState (driven by the sentinel's RPCs), so the loop reacts to
// them between batches.
type Node struct {
	cfg    NodeConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// StartNode launches the replication loop. Close stops it.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.DB == nil || cfg.State == nil {
		return nil, errors.New("repl: NodeConfig requires DB and State")
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	go n.run()
	return n, nil
}

// Close stops the loop and waits for it to exit.
func (n *Node) Close() {
	n.cancel()
	<-n.done
}

// run alternates between idling (primary role) and following (replica
// role), re-evaluating on every role/primary change.
func (n *Node) run() {
	defer close(n.done)
	for n.ctx.Err() == nil {
		st := n.cfg.State
		ch := st.Changed()
		role, primary, self := st.Role(), st.PrimaryAddr(), st.Self()
		if role == server.RolePrimary || primary == "" || primary == self {
			select {
			case <-n.ctx.Done():
				return
			case <-ch:
			}
			continue
		}
		n.follow(primary)
	}
}

// follow tails one primary until the stream breaks, the role changes, or
// the node is told to follow someone else.
func (n *Node) follow(primary string) {
	st, db := n.cfg.State, n.cfg.DB
	ch := st.Changed()
	dialCtx, cancel := context.WithTimeout(n.ctx, dialTimeout)
	cli, err := server.DialContext(dialCtx, primary, server.WithDialTimeout(dialTimeout))
	cancel()
	if err != nil {
		obs.Warnf("repl: node %s: dialing primary %s: %v", st.Self(), primary, err)
		n.pause()
		return
	}
	defer cli.Close()

	for {
		select {
		case <-n.ctx.Done():
			return
		case <-ch:
			return // role or primary changed; re-evaluate in run
		default:
		}
		if st.Role() != server.RoleReplica && st.Role() != server.RoleCandidate {
			return
		}
		if st.FullSyncPending() {
			// This node's log may hold records from a dead history (it was
			// demoted from primary); tailing from the local offset would
			// interleave histories. Restart from a snapshot.
			if err := n.fullSync(cli); err != nil {
				obs.Warnf("repl: node %s: full-sync from %s: %v", st.Self(), primary, err)
				n.pause()
				return
			}
			continue
		}

		from := db.StoreSeq()
		fetchCtx, cancel := context.WithTimeout(n.ctx, fetchWait+5*time.Second)
		batch, err := cli.ReplFetch(fetchCtx, from, fetchMax, fetchWait, st.Self())
		cancel()
		if err != nil {
			var npe *server.NotPrimaryError
			switch {
			case errors.As(err, &npe):
				// The fleet moved on; chase the redirect (or wait for the
				// sentinel if the ex-primary doesn't know the successor).
				if npe.Primary != "" && npe.Primary != primary {
					st.FollowHint(npe.Primary)
				}
				return
			case server.IsReplCompacted(err):
				// Our position predates the primary's earliest retained
				// record. Full-sync and continue on the same connection.
				if err := n.fullSync(cli); err != nil {
					obs.Warnf("repl: node %s: full-sync from %s: %v", st.Self(), primary, err)
					n.pause()
					return
				}
				continue
			case n.ctx.Err() != nil:
				return
			default:
				obs.Warnf("repl: node %s: fetch from %s at %d: %v", st.Self(), primary, from, err)
				n.pause()
				return
			}
		}
		st.Touch()
		if batch.FirstSeq != from {
			// Defensive: the primary answered a different position than
			// asked. Treat like divergence and resync.
			obs.Warnf("repl: node %s: primary %s answered position %d for request %d; resyncing", st.Self(), primary, batch.FirstSeq, from)
			if err := n.fullSync(cli); err != nil {
				n.pause()
				return
			}
			continue
		}
		if len(batch.Records) > 0 {
			if err := db.ApplyReplRecords(n.ctx, batch.Records); err != nil {
				obs.Errorf("repl: node %s: applying batch at %d: %v", st.Self(), from, err)
				// An apply failure means local state disagrees with the
				// stream (e.g. seq collision after divergence); rebuilding
				// from a snapshot is the only safe recovery.
				if err := n.fullSync(cli); err != nil {
					n.pause()
					return
				}
			}
		}
	}
}

// fullSync rebuilds the local database from the primary's snapshot: the
// node flips to candidate (reads redirect for the duration), transfers the
// blob, wipes its directory, installs, and recovers. On any failure the
// node stays marked for full-sync, so a killed primary mid-transfer just
// means a clean restart of the transfer against its successor.
func (n *Node) fullSync(cli *server.Client) error {
	st, db := n.cfg.State, n.cfg.DB
	st.BeginSync()
	t0 := time.Now()
	snapCtx, cancel := context.WithTimeout(n.ctx, 10*time.Minute)
	seq, blob, err := cli.ReplSnapshot(snapCtx)
	cancel()
	if err != nil {
		return fmt.Errorf("snapshot transfer: %w", err)
	}
	if err := db.ReplaceFromSnapshot(seq, blob); err != nil {
		return fmt.Errorf("installing snapshot at %d: %w", seq, err)
	}
	st.EndSync()
	st.Touch()
	obs.Infof("repl: node %s: full-sync complete at offset %d (%d bytes in %v)",
		st.Self(), seq, len(blob), time.Since(t0).Round(time.Millisecond))
	return nil
}

// pause sleeps the backoff, returning early on shutdown.
func (n *Node) pause() {
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-n.ctx.Done():
	case <-t.C:
	}
}
