package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// EventLog appends JSON objects, one per line, to a writer. Marshaling
// structs (fixed field order) rather than maps keeps the byte stream
// deterministic for a given event sequence, so logs diff cleanly
// between runs. A nil log discards events.
type EventLog struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewEventLog wraps w. Pass the result around by pointer; a nil
// *EventLog is a valid discard sink.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Emit marshals v and appends it as one line. Marshal or write errors
// are sticky and returned from Err; Emit itself never fails loudly so
// event logging can't abort an experiment.
func (l *EventLog) Emit(v any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		l.err = err
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		l.err = err
	}
}

// Err returns the first error encountered, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
