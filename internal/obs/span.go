package obs

// Span is one completed wall-clock interval of the run, forming a tree via
// Parent (0 means root). Start and End are seconds since the registry
// epoch. Attrs carries small string annotations (stage index, per-phase
// timings).
type Span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  float64           `json:"start"`
	End    float64           `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span length in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// ActiveSpan is a span still being measured. End records it into the
// registry. All methods are nil-safe no-ops, so spans cost nothing when
// observability is off.
type ActiveSpan struct {
	r    *Registry
	span Span
}

// StartSpan opens a span under parent (nil for a root span). Nil-safe: a
// nil registry returns a nil span.
func (r *Registry) StartSpan(name string, parent *ActiveSpan) *ActiveSpan {
	if r == nil {
		return nil
	}
	s := &ActiveSpan{r: r, span: Span{
		ID:   r.nextSpanID.Add(1),
		Name: name,
	}}
	if parent != nil {
		s.span.Parent = parent.span.ID
	}
	s.span.Start = r.sinceEpoch()
	return s
}

// ID returns the span's identifier (0 on nil).
func (s *ActiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.ID
}

// SetAttr annotates the span. Nil-safe.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string)
	}
	s.span.Attrs[k] = v
}

// End closes the span and records it. Nil-safe; calling End twice records
// the span twice, so don't.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.End = s.r.sinceEpoch()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.span)
	s.r.mu.Unlock()
}

// Spans returns a copy of the completed spans recorded so far.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}
