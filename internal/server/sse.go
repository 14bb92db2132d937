package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bistpath"
)

const (
	// subBufferCap bounds each subscriber's pending-event queue. A
	// subscriber that cannot drain fast enough loses the oldest pending
	// events (counted, and reported in-stream as a comment) instead of
	// back-pressuring the synthesis or the other subscribers.
	subBufferCap = 128
	// replayCap bounds the per-job replayable history handed to late
	// subscribers. Lifecycle, phase and terminal events are replayable;
	// a job produces a couple dozen of them at most, so the cap only
	// guards against pathological inputs.
	replayCap = 256
)

// wireEvent is one rendered SSE frame: a monotonically increasing id, an
// event name, and a JSON data payload.
type wireEvent struct {
	seq      int64
	name     string
	data     []byte
	terminal bool
}

// hub fans one job's event stream out to any number of SSE subscribers.
// Publishing never blocks: each subscriber owns a bounded queue with
// drop-oldest overflow. Replayable events (lifecycle, phases, cache-hit,
// terminal) are kept so a subscriber attaching mid-flight — or after the
// job concluded — still sees the ordered history ending in exactly one
// terminal event. SearchProgress ticks are ephemeral: live subscribers
// only.
type hub struct {
	mu     sync.Mutex
	seq    int64
	replay []wireEvent
	subs   map[*subscriber]struct{}
	closed bool // terminal published; all later publishes are dropped
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// publish renders and delivers one event. After the terminal event the
// hub is closed: nothing further is accepted, which is what makes the
// "exactly one terminal event" stream contract hold no matter how the
// job concluded.
func (h *hub) publish(name string, payload any, replayable, terminal bool) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{}`)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev := wireEvent{seq: h.seq, name: name, data: data, terminal: terminal}
	if replayable || terminal {
		if len(h.replay) >= replayCap {
			copy(h.replay, h.replay[1:])
			h.replay = h.replay[:replayCap-1]
		}
		h.replay = append(h.replay, ev)
	}
	for sub := range h.subs {
		sub.enqueue(ev)
	}
	if terminal {
		h.closed = true
	}
}

// lifecycleJSON is the data payload of queued/running events.
type lifecycleJSON struct {
	ID     string `json:"id"`
	Design string `json:"design"`
}

func (h *hub) publishLifecycle(name, id, design string, terminal bool) {
	h.publish(name, lifecycleJSON{ID: id, Design: design}, true, terminal)
}

func (h *hub) publishTerminal(name string, payload terminalJSON) {
	h.publish(name, payload, true, true)
}

// observerJSON is the data payload of forwarded bistpath.Event values.
type observerJSON struct {
	Design      string `json:"design"`
	Phase       string `json:"phase,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns,omitempty"`
	SearchNodes int64  `json:"search_nodes,omitempty"`
}

// observe is the job's Config.Observer: it forwards synthesis events to
// the stream under the library's own event-kind names. It runs on the
// job's synthesizing goroutine; the hub lock orders it against the
// subscribers.
func (h *hub) observe(e bistpath.Event) {
	p := observerJSON{Design: e.Design}
	switch e.Kind {
	case bistpath.PhaseStart, bistpath.PhaseEnd:
		p.Phase = e.Phase.String()
		p.ElapsedNS = int64(e.Elapsed)
	case bistpath.SearchProgress:
		p.Phase = e.Phase.String()
		p.SearchNodes = e.SearchNodes
	}
	// SearchProgress ticks can arrive in the thousands for big searches;
	// they are live-only so replay stays a bounded, ordered skeleton.
	replayable := e.Kind != bistpath.SearchProgress
	h.publish(e.Kind.String(), p, replayable, false)
}

// subscriber is one attached SSE client. enqueue is called under the hub
// lock; drain is called by the client's serve loop.
type subscriber struct {
	mu      sync.Mutex
	queue   []wireEvent
	dropped int64
	notify  chan struct{}
}

func (s *subscriber) enqueue(ev wireEvent) {
	s.mu.Lock()
	if len(s.queue) >= subBufferCap {
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:subBufferCap-1]
		s.dropped++
		expSSEDropped.Add(1)
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// drain takes the pending events and the drop count accumulated since
// the last call.
func (s *subscriber) drain() ([]wireEvent, int64) {
	s.mu.Lock()
	evs := s.queue
	s.queue = nil
	d := s.dropped
	s.dropped = 0
	s.mu.Unlock()
	return evs, d
}

// subscribe registers a new client, preloading the replayable history so
// its stream starts with the job's ordered past.
func (h *hub) subscribe() *subscriber {
	sub := &subscriber{notify: make(chan struct{}, 1)}
	h.mu.Lock()
	for _, ev := range h.replay {
		sub.enqueue(ev)
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	expSSESubscribers.Add(1)
	return sub
}

func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	expSSESubscribers.Add(-1)
}

// serveSSE streams a job's events until its terminal event has been
// written, the client disconnects, or the response stops accepting
// writes. Slow-consumer drops surface in-stream as a comment frame so a
// client knows its view has gaps.
func serveSSE(w http.ResponseWriter, r *http.Request, h *hub, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, &apiError{status: http.StatusInternalServerError,
			msg: "streaming unsupported by this connection"})
		return
	}
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("Connection", "keep-alive")
	hdr.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := h.subscribe()
	defer h.unsubscribe(sub)
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		evs, dropped := sub.drain()
		if dropped > 0 {
			fmt.Fprintf(w, ": dropped %d events (slow consumer)\n\n", dropped)
		}
		terminal := false
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, ev.name, ev.data); err != nil {
				return
			}
			terminal = terminal || ev.terminal
		}
		if len(evs) > 0 || dropped > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-sub.notify:
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
