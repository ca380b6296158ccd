package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Begin, Fork, ThreadStart, Tsagd, ThreadEnd, WBDrain,
		Retire, Abort, WrongMark, Kill, SeqResume, Halt}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should fall back")
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Event(Event{Cycle: 1, TU: 0, Kind: Fork, Arg: 5})
	r.Event(Event{Cycle: 2, TU: 1, Kind: ThreadStart, Arg: 5})
	r.Event(Event{Cycle: 9, TU: 1, Kind: Retire})
	if got := r.Count(Fork); got != 1 {
		t.Errorf("Count(Fork) = %d", got)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Kind != Fork || evs[2].Cycle != 9 {
		t.Errorf("events = %v", evs)
	}
	// Events returns a copy.
	evs[0].Kind = Halt
	if r.Events()[0].Kind != Fork {
		t.Error("Events exposed internal storage")
	}
}

func TestWriter(t *testing.T) {
	var buf bytes.Buffer
	w := Writer{W: &buf}
	w.Event(Event{Cycle: 42, TU: 3, Kind: Abort, Arg: 17})
	out := buf.String()
	if !strings.Contains(out, "tu3") || !strings.Contains(out, "abort") ||
		!strings.Contains(out, "42") {
		t.Errorf("writer output %q", out)
	}
}

func TestMulti(t *testing.T) {
	var a, b Recorder
	m := Multi{&a, &b}
	m.Event(Event{Kind: Begin})
	if a.Count(Begin) != 1 || b.Count(Begin) != 1 {
		t.Error("Multi did not fan out")
	}
}
