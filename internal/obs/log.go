package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the wire name of the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel resolves a level name (case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// logEvent is the NDJSON wire form of one log event.
type logEvent struct {
	TimeNS int64                  `json:"ts_ns"`
	Level  string                 `json:"level"`
	Msg    string                 `json:"msg"`
	Attrs  map[string]interface{} `json:"attrs,omitempty"`
}

// Logger is the structured, leveled NDJSON event logger the serving
// path uses instead of ad-hoc stderr writes. One event is one JSON
// object on one line:
//
//	{"ts_ns":1700000000000,"level":"info","msg":"serving","attrs":{"addr":"127.0.0.1:8080"}}
//
// Events below the minimum level are dropped before any allocation.
// When a Flight recorder is attached, every emitted event is also
// captured in the ring, so a flight dump interleaves the daemon's log
// history with its span history. A nil *Logger is fully inert.
type Logger struct {
	min    Level
	flight *Flight

	mu  sync.Mutex
	w   io.Writer
	err error // first write error
}

// NewLogger returns a logger emitting NDJSON events at or above min
// to w. A nil w drops events (flight capture, when attached, still
// records them).
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// SetFlight attaches the flight recorder every emitted event is also
// captured into. Attach before the logger is shared across goroutines.
func (l *Logger) SetFlight(f *Flight) {
	if l == nil {
		return
	}
	l.flight = f
}

// Enabled reports whether events at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Err returns the first event-write error, if any.
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Logger) log(lv Level, msg string, attrs []Attr) {
	if l == nil || lv < l.min {
		return
	}
	now := time.Now()
	l.flight.RecordLog(now, lv.String(), msg, attrs)
	if l.w == nil {
		return
	}
	ev := logEvent{TimeNS: now.UnixNano(), Level: lv.String(), Msg: msg}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]interface{}, len(attrs))
		for _, a := range attrs {
			ev.Attrs[a.Key] = a.Value
		}
	}
	line, err := json.Marshal(ev)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		_, err = fmt.Fprintf(l.w, "%s\n", line)
	}
	if err != nil && l.err == nil {
		l.err = err
	}
}

// Debug emits a debug-level event.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.log(LevelDebug, msg, attrs) }

// Info emits an info-level event.
func (l *Logger) Info(msg string, attrs ...Attr) { l.log(LevelInfo, msg, attrs) }

// Warn emits a warn-level event.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.log(LevelWarn, msg, attrs) }

// Error emits an error-level event.
func (l *Logger) Error(msg string, attrs ...Attr) { l.log(LevelError, msg, attrs) }
