package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// Exporter receives each completed trace, synchronously, on the
// goroutine that ended the root span. Implementations must be safe for
// concurrent calls and must treat the trace as read-only (the ring and
// other exporters share it).
type Exporter interface {
	Export(t *Trace)
}

// JSONL streams completed traces to a writer as one JSON object per
// line — the structured event journal.
type JSONL struct {
	mu sync.Mutex
	w  io.Writer
	// err holds the first write error; once set, later traces are
	// dropped (an archival journal must never block the data path), and
	// Err reports it so the journal's owner can fail loudly at shutdown.
	err error
}

// NewJSONL creates a JSONL exporter over w (typically an append-mode
// file). The caller owns w's lifecycle; close it only after the tracer
// can no longer complete traces.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Export writes one trace as a single JSON line.
func (j *JSONL) Export(t *Trace) {
	blob, err := json.Marshal(t)
	if err != nil {
		// Trace contains only plain data; marshal cannot fail.
		panic("trace: jsonl marshal: " + err.Error())
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if _, err := j.w.Write(blob); err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Mem collects completed traces in memory — the exporter tests use.
type Mem struct {
	mu     sync.Mutex
	traces []*Trace
}

// Export appends the trace.
func (m *Mem) Export(t *Trace) {
	m.mu.Lock()
	m.traces = append(m.traces, t)
	m.mu.Unlock()
}

// Traces returns the collected traces in completion order.
func (m *Mem) Traces() []*Trace {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Trace(nil), m.traces...)
}
