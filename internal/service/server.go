package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Server is the HTTP front-end over a Service.
//
//	POST   /jobs             submit a JobSpec (at most 1 MiB); 202 + job snapshot (200 on cache hit)
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result finished job's Result
//	GET    /jobs/{id}/events server-sent events: a status snapshot per change
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /metrics          Metrics JSON
//	GET    /healthz          readiness: 200 serving, 503 draining
type Server struct {
	svc *Service
	mux *http.ServeMux

	// eventPoll is how often the SSE loop re-checks a job for changes;
	// shortened in tests.
	eventPoll time.Duration
}

// NewServer wires the routes.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), eventPoll: 200 * time.Millisecond}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// handleHealthz is the readiness probe fleet membership checks and load
// balancers key off: 200 while the daemon accepts jobs, 503 once a
// drain has begun so traffic (and peer steals) stop landing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.svc.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Handler returns the routed handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxJobSpecBytes bounds a POST /jobs body. A job spec is a few hundred
// bytes of JSON, so a body this large is broken or hostile; reading
// stops at the bound and the request is refused with 413.
const maxJobSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes)).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("job spec larger than %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	job, err := s.svc.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case job.CacheHit:
		writeJSON(w, http.StatusOK, job)
	default:
		writeJSON(w, http.StatusAccepted, job)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.svc.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.svc.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, res, err := s.svc.JobResult(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if res == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s, no result yet", job.ID, job.State))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Metrics())
}

// handleEvents streams job snapshots as server-sent events until the job
// reaches a terminal state or the client goes away. Each event carries
// the full status JSON; a snapshot is emitted only when Version moves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.svc.Job(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	lastVersion := -1
	ticker := time.NewTicker(s.eventPoll)
	defer ticker.Stop()
	for {
		job, err := s.svc.Job(id)
		if err != nil {
			return
		}
		if job.Version != lastVersion {
			lastVersion = job.Version
			raw, _ := json.Marshal(job)
			fmt.Fprintf(w, "event: status\ndata: %s\n\n", raw)
			flusher.Flush()
		}
		if job.State.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
