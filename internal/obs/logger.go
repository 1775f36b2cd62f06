package obs

import (
	"fmt"
	"io"
	"log"
	"sync/atomic"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// levelOff is above every real level; a logger with this minimum
	// drops everything (see Discard).
	levelOff
)

// Tag returns the level's log-line prefix.
func (l Level) Tag() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return "?"
	}
}

// ParseLevel parses a level name (debug, info, warn, error) as written on
// a command line.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// Logger is a leveled logger. The process has exactly one (SetDefault):
// every component logs through the package-level Debugf, Infof, Warnf and
// Errorf, so vpserver and vpsentinel configure logging once, and a test
// silences or captures everything by swapping the one logger.
type Logger struct {
	min  Level
	sink func(lv Level, format string, args ...any)
}

// Discard drops every message.
var Discard = &Logger{min: levelOff}

// New returns a logger writing level-tagged, timestamped lines to w,
// dropping messages below min.
func New(w io.Writer, min Level) *Logger {
	lg := log.New(w, "", log.LstdFlags)
	return &Logger{min: min, sink: func(lv Level, format string, args ...any) {
		lg.Printf(lv.Tag()+" "+format, args...)
	}}
}

// process is the process-wide logger, routed by default through the
// standard log package so it composes with log.SetOutput / log.SetFlags.
var process atomic.Pointer[Logger]

func init() {
	process.Store(&Logger{min: LevelInfo, sink: func(lv Level, format string, args ...any) {
		log.Printf(lv.Tag()+" "+format, args...)
	}})
}

// SetDefault replaces the process-wide logger and returns the one it
// replaced; nil installs Discard. SetLogLevel calls it once at startup with
// the level chosen on the command line.
func SetDefault(l *Logger) (prev *Logger) {
	if l == nil {
		l = Discard
	}
	return process.Swap(l)
}

// logf is the single filtered emission path.
func logf(lv Level, format string, args ...any) {
	if l := process.Load(); lv >= l.min {
		l.sink(lv, format, args...)
	}
}

// Debugf logs at debug level.
func Debugf(format string, args ...any) { logf(LevelDebug, format, args...) }

// Infof logs at info level.
func Infof(format string, args ...any) { logf(LevelInfo, format, args...) }

// Warnf logs at warn level.
func Warnf(format string, args ...any) { logf(LevelWarn, format, args...) }

// Errorf logs at error level.
func Errorf(format string, args ...any) { logf(LevelError, format, args...) }
