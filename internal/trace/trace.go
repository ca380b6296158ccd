// Package trace records thread-lifecycle events from the superthreaded
// machine: forks, thread starts, aborts, wrong-thread markings, write-back
// stages, and region boundaries. Attach a Recorder for programmatic
// inspection (tests, tools) or a Writer to stream a human-readable log.
// Ring is the bounded most-recent buffer the telemetry flight recorder and
// the progress tap keep their history in.
package trace

import (
	"fmt"
	"io"
	"sync"
)

// Kind classifies a machine event.
type Kind uint8

// Thread-lifecycle event kinds.
const (
	Begin       Kind = iota // parallel region opened (TU = head)
	Fork                    // FORK committed (TU = parent; Arg = target PC)
	ThreadStart             // forked thread began execution (Arg = start PC)
	Tsagd                   // TSAG stage complete
	ThreadEnd               // THEND committed; write-back pending
	WBDrain                 // write-back stage started draining
	Retire                  // thread retired (write-back complete)
	Abort                   // ABORT committed by a correct thread
	WrongMark               // thread marked wrong instead of killed
	Kill                    // thread killed (abort kill, self-kill, BEGIN cleanup)
	SeqResume               // aborting thread resumed sequential execution (Arg = PC)
	Halt                    // program completed
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Begin:
		return "begin"
	case Fork:
		return "fork"
	case ThreadStart:
		return "start"
	case Tsagd:
		return "tsagd"
	case ThreadEnd:
		return "thend"
	case WBDrain:
		return "wb"
	case Retire:
		return "retire"
	case Abort:
		return "abort"
	case WrongMark:
		return "wrong"
	case Kill:
		return "kill"
	case SeqResume:
		return "resume"
	case Halt:
		return "halt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one machine occurrence.
type Event struct {
	Cycle uint64
	TU    int
	Kind  Kind
	Arg   int64 // kind-specific: a PC for Fork/ThreadStart/SeqResume
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] tu%d %-6s %d", e.Cycle, e.TU, e.Kind, e.Arg)
}

// Tracer receives machine events. Implementations must be cheap; the
// machine calls Event synchronously from the simulation loop.
type Tracer interface {
	Event(e Event)
}

// Recorder collects every event in memory (tests and tools); the zero
// value is ready to use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Tracer.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in chronological order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Count returns how many recorded events are of the given kind.
func (r *Recorder) Count(k Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Writer streams events as text lines.
type Writer struct {
	W io.Writer
}

// Event implements Tracer.
func (w Writer) Event(e Event) {
	fmt.Fprintln(w.W, e.String())
}

// Multi fans an event out to several tracers.
type Multi []Tracer

// Event implements Tracer.
func (m Multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}
