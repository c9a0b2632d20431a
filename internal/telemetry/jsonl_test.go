package telemetry

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestEventLogEmit(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb)
	type costEvent struct {
		Event  string  `json:"event"`
		Method string  `json:"method"`
		Rounds int     `json:"rounds"`
		Sec    float64 `json:"seconds"`
	}
	l.Emit(costEvent{"cost", "quickdrop", 12, 0.5})
	l.Emit(costEvent{"cost", "retrain", 40, 2})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// Struct marshaling keeps field order fixed — byte-identical logs
	// for identical event sequences.
	if lines[0] != `{"event":"cost","method":"quickdrop","rounds":12,"seconds":0.5}` {
		t.Errorf("line 0 = %s", lines[0])
	}
	var back costEvent
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil || back.Rounds != 40 {
		t.Errorf("round-trip failed: %v %+v", err, back)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestEventLogStickyError(t *testing.T) {
	l := NewEventLog(failWriter{})
	l.Emit(struct{ A int }{1})
	if l.Err() == nil {
		t.Fatal("want sticky write error")
	}
	l.Emit(struct{ A int }{2}) // must not panic or clear the error
	if l.Err() == nil {
		t.Fatal("error should stick")
	}
}

func TestNilEventLog(t *testing.T) {
	var l *EventLog
	l.Emit(struct{}{})
	if l.Err() != nil {
		t.Fatal("nil log should be a silent discard sink")
	}
}
