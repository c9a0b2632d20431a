package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"quickdrop/internal/core"
	"quickdrop/internal/nn"
	"quickdrop/internal/telemetry"
)

// RequestBody is the wire form of a core.Request, used both in ticket
// views and (extended with Wait) as the POST /v1/forget payload.
type RequestBody struct {
	Kind    string `json:"kind"`
	Class   *int   `json:"class,omitempty"`
	Client  *int   `json:"client,omitempty"`
	Samples []int  `json:"samples,omitempty"`
}

// requestBody projects a core.Request onto its wire form.
func requestBody(r core.Request) RequestBody {
	b := RequestBody{Kind: kindName(r.Kind)}
	switch r.Kind {
	case core.ClassLevel:
		c := r.Class
		b.Class = &c
	case core.ClientLevel:
		c := r.Client
		b.Client = &c
	case core.SampleLevel:
		c := r.Client
		b.Client = &c
		b.Samples = r.Samples
	}
	return b
}

// ForgetRequest is the POST /v1/forget body: a RequestBody plus Wait,
// which blocks the response until the request reaches a terminal state
// instead of returning 202 immediately.
type ForgetRequest struct {
	RequestBody
	Wait bool `json:"wait,omitempty"`
}

// toCore validates the body against the system's immutable bounds and
// converts it. Only static checks happen here — the forget ledger
// belongs to the worker, so "already unlearned" and "matches no
// synthetic data" surface on the ticket, not at submission.
func (f ForgetRequest) toCore(classes, clients int) (core.Request, error) {
	switch f.Kind {
	case "class":
		if f.Class == nil {
			return core.Request{}, errors.New(`"class" is required for kind "class"`)
		}
		if *f.Class < 0 || *f.Class >= classes {
			return core.Request{}, fmt.Errorf("class %d out of range [0,%d)", *f.Class, classes)
		}
		return core.Request{Kind: core.ClassLevel, Class: *f.Class}, nil
	case "client":
		if f.Client == nil {
			return core.Request{}, errors.New(`"client" is required for kind "client"`)
		}
		if *f.Client < 0 || *f.Client >= clients {
			return core.Request{}, fmt.Errorf("client %d out of range [0,%d)", *f.Client, clients)
		}
		return core.Request{Kind: core.ClientLevel, Client: *f.Client}, nil
	case "sample":
		if f.Client == nil {
			return core.Request{}, errors.New(`"client" is required for kind "sample"`)
		}
		if *f.Client < 0 || *f.Client >= clients {
			return core.Request{}, fmt.Errorf("client %d out of range [0,%d)", *f.Client, clients)
		}
		if len(f.Samples) == 0 {
			return core.Request{}, errors.New(`"samples" must be non-empty for kind "sample"`)
		}
		for _, s := range f.Samples {
			if s < 0 {
				return core.Request{}, fmt.Errorf("negative sample index %d", s)
			}
		}
		return core.Request{Kind: core.SampleLevel, Client: *f.Client, Samples: f.Samples}, nil
	default:
		return core.Request{}, fmt.Errorf("unknown kind %q (want class, client, or sample)", f.Kind)
	}
}

// routes mounts the /v1 API and the telemetry surface on the mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/forget", s.handleForget)
	s.mux.HandleFunc("GET /v1/requests", s.handleRequests)
	s.mux.HandleFunc("GET /v1/requests/{id}", s.handleRequest)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	telemetry.Register(s.mux, s.metrics.reg)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The client hanging up mid-body is its problem, not ours.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// retryAfter is the Retry-After, in seconds, of a load-shedding reply. A
// full queue (429) empties at the worker's next drain, which takes the
// whole backlog as one batch; a draining daemon (503) is going down and
// a retry reaches whatever replaces it.
const retryAfter = "1"

func (s *Server) handleForget(w http.ResponseWriter, r *http.Request) {
	var body ForgetRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	req, err := body.toCore(s.sys.Model.Classes, s.sys.Clients.NumClients())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrQueueClosed):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if body.Wait {
		select {
		case <-t.Done():
		case <-r.Context().Done():
			// The submitter hung up; the request still executes — a
			// deletion, once accepted, is not cancelable by disconnect.
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
		writeJSON(w, http.StatusOK, t.View())
		return
	}
	writeJSON(w, http.StatusAccepted, t.View())
}

func (s *Server) handleRequests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"requests": s.views()})
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	t, ok := s.ticket(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no request %d", id))
		return
	}
	writeJSON(w, http.StatusOK, t.View())
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	snap := s.store.Acquire()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no model published"))
		return
	}
	defer snap.Release()
	writeJSON(w, http.StatusOK, map[string]any{
		"version":          snap.Version(),
		"stamp_unix_nanos": snap.Stamp(),
		"live_snapshots":   s.store.Live(),
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if s.evalPool.New == nil {
		writeError(w, http.StatusNotImplemented, errors.New("prediction disabled: no model factory configured"))
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	shape := s.sys.Model.InputShape
	x, err := decodeInputs(body, shape[0], shape[1], shape[2])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}

	// Readers never block on the worker: Acquire pins the current
	// version's refcount, the worker publishes the next version
	// concurrently, and Release reclaims ours once we are done.
	snap := s.store.Acquire()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no model published"))
		return
	}
	defer snap.Release()

	m := s.evalPool.Get().(*nn.Model)
	// Deferred so a panicking SetParams/Predict (e.g. a misconfigured
	// ModelFactory's shape mismatch) cannot leak the model from the
	// pool; reuse always overwrites the params, so returning a model
	// mid-write is safe.
	defer s.evalPool.Put(m)
	m.SetParams(snap.Params())
	pred := m.Predict(x)

	writePredictions(w, snap.Version(), pred)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
