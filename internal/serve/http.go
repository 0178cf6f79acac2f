package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"alic/internal/core"
	"alic/internal/snapshot"
)

// HTTP API of the tuning service (all bodies JSON):
//
//	POST   /v1/tenants/{tenant}/sessions                      create session (spec in body)
//	GET    /v1/tenants/{tenant}/sessions                      list tenant sessions
//	GET    /v1/tenants/{tenant}/sessions/{name}               session info
//	DELETE /v1/tenants/{tenant}/sessions/{name}               delete session
//	GET    /v1/tenants/{tenant}/sessions/{name}/suggestions   pending configs to measure (remote)
//	POST   /v1/tenants/{tenant}/sessions/{name}/observations  post measured observations (remote)
//	GET    /v1/tenants/{tenant}/sessions/{name}/result        winner + bookkeeping (done sessions)
//	GET    /v1/tenants/{tenant}/sessions/{name}/snapshot      serialized session (binary, for migration)
//	POST   /v1/tenants/{tenant}/sessions/{name}/restore       recreate a session from a snapshot body
//	GET    /v1/stats                                          server counters
//	GET    /v1/healthz                                        liveness
//
// Backpressure: a full observation queue, an exhausted budget, or the
// session cap answer 429 with a Retry-After header.

// retryAfterSeconds is the hint sent with 429 responses.
const retryAfterSeconds = 1

type errorBody struct {
	Error string `json:"error"`
}

type acceptedBody struct {
	Accepted int    `json:"accepted"`
	Status   Status `json:"status"`
	Error    string `json:"error,omitempty"`
}

// Handler returns the HTTP API bound to the server.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", srv.handleCreate)
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions", srv.handleList)
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{name}", srv.handleInfo)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/sessions/{name}", srv.handleDelete)
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{name}/suggestions", srv.handleSuggestions)
	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{name}/observations", srv.handleObservations)
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{name}/result", srv.handleResult)
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{name}/snapshot", srv.handleSnapshot)
	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{name}/restore", srv.handleRestore)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("GET /v1/healthz", srv.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errStatus maps serve sentinels to HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrNotDone):
		return http.StatusConflict
	case errors.Is(err, ErrBadSpec), errors.Is(err, ErrBadObservation), errors.Is(err, ErrNotRemote),
		errors.Is(err, snapshot.ErrCorruptSnapshot), errors.Is(err, snapshot.ErrUnsupportedVersion),
		errors.Is(err, core.ErrSnapshotMismatch):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrNotAccepting), errors.Is(err, ErrSessionLimit),
		errors.Is(err, ErrSessionBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, errStatus(err), errorBody{Error: err.Error()})
}

func (srv *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	s, err := srv.GetSession(r.PathValue("tenant"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return s, true
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad body: " + err.Error()})
		return
	}
	spec, err := parseSpec(data)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec.Tenant = r.PathValue("tenant")
	s, err := srv.CreateSession(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Info())
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := srv.ListSessions(r.PathValue("tenant"))
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionInfo `json:"sessions"`
	}{Sessions: infos})
}

func (srv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if s, ok := srv.session(w, r); ok {
		writeJSON(w, http.StatusOK, s.Info())
	}
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := srv.DeleteSession(r.PathValue("tenant"), r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted bool `json:"deleted"`
	}{Deleted: true})
}

func (srv *Server) handleSuggestions(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.session(w, r)
	if !ok {
		return
	}
	sug, err := s.Suggestions()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sug)
}

func (srv *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.session(w, r)
	if !ok {
		return
	}
	var body struct {
		Observations []ObservationPost `json:"observations"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	accepted, err := s.PostObservations(body.Observations)
	out := acceptedBody{Accepted: accepted, Status: s.Info().Status}
	if err != nil {
		out.Error = err.Error()
		writeJSON(w, errStatus(err), out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (srv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s, ok := srv.session(w, r)
	if !ok {
		return
	}
	res, err := s.Result()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSnapshot serializes a session for migration. The body is the
// binary checkpoint container; POST it to another server's restore
// endpoint to move the session.
func (srv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := srv.SnapshotSession(r.PathValue("tenant"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleRestore recreates a session from a snapshot body under the
// URL's tenant/name (which may differ from the origin's — renaming
// during migration is fine; the learner trajectory depends only on
// the spec's seed and parameters).
func (srv *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad body: " + err.Error()})
		return
	}
	s, err := srv.restoreSession(data, r.PathValue("tenant"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Info())
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.Stats())
}

func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{OK: true})
}
