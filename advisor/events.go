package advisor

// EventType discriminates streaming progress events.
type EventType string

const (
	// EventSpace opens every stream: the session's candidate space
	// summary and the pipeline stats behind it.
	EventSpace EventType = "space"
	// EventTrace carries one search TraceEvent, forwarded as the
	// strategy emits it (under the race portfolio, events from every
	// member interleave; TraceEvent.Strategy tells them apart).
	EventTrace EventType = "trace"
	// EventCounters carries the run's cache counts and kernel deltas,
	// emitted once after the search finishes.
	EventCounters EventType = "counters"
	// EventResult terminates a successful stream with the full
	// response.
	EventResult EventType = "result"
	// EventError terminates a failed stream.
	EventError EventType = "error"
)

// Event is one streaming progress message. Exactly one payload field is
// set, matching Type; Seq increases by one per event so transports that
// re-order (or consumers that fan in) can restore stream order.
type Event struct {
	Type EventType `json:"type"`
	Seq  int       `json:"seq"`
	// Candidates and Pipeline are the EventSpace payload.
	Candidates *CandidateSummary `json:"candidates,omitempty"`
	Pipeline   *PipelineStats    `json:"pipeline,omitempty"`
	// Trace is the EventTrace payload.
	Trace *TraceEvent `json:"trace,omitempty"`
	// Cache and Kernel are the EventCounters payload; Dropped counts
	// trace events shed because the consumer fell behind (trace
	// delivery is lossy under backpressure so a slow consumer never
	// stalls the search).
	Cache   *CacheStats  `json:"cache,omitempty"`
	Kernel  *KernelStats `json:"kernel,omitempty"`
	Dropped int          `json:"dropped,omitempty"`
	// Response is the EventResult payload.
	Response *RecommendResponse `json:"response,omitempty"`
	// Error is the EventError payload.
	Error string `json:"error,omitempty"`
}
