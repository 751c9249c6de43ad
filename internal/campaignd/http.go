package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"repro/internal/manifest"
	"repro/internal/obs"
)

// SubmitRequest is the POST /v1/campaigns body: tenant metadata wrapped
// around the existing manifest format, unchanged.
type SubmitRequest struct {
	Tenant   string             `json:"tenant"`
	Priority int                `json:"priority,omitempty"`
	Manifest *manifest.Manifest `json:"manifest"`
}

// SubmitResponse acknowledges an admitted campaign.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// maxSubmitBytes bounds a submit body. A manifest names at most 36
// entries, so a real one is a few KB; without a bound one request could
// exhaust the service's memory.
const maxSubmitBytes = 1 << 20

// NewHandler builds the spad HTTP API on a fresh mux:
//
//	POST   /v1/campaigns             submit (429/503 on admission reject,
//	                                 413 over maxSubmitBytes)
//	GET    /v1/campaigns             list all campaigns, newest first
//	GET    /v1/campaigns/{id}        status: state machine + per-entry
//	                                 progress + convergence rounds
//	GET    /v1/campaigns/{id}/report final report (done campaigns only)
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /v1/queue                 scheduler snapshot per tenant
//
// plus the shared telemetry surface (/metrics, /statusz, /healthz) when
// o is non-nil, so one port serves API and observability.
func NewHandler(s *Service, o *obs.Observer) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err.Error(), "")
			return
		}
		id, err := s.Submit(Spec{Tenant: req.Tenant, Priority: req.Priority, Manifest: req.Manifest})
		if err != nil {
			var over *ErrOverloaded
			switch {
			case errors.As(err, &over) && over.Reason == ReasonDraining:
				writeError(w, http.StatusServiceUnavailable, over.Msg, over.Reason)
			case errors.As(err, &over):
				w.Header().Set("Retry-After", "5")
				writeError(w, http.StatusTooManyRequests, over.Msg, over.Reason)
			default:
				writeError(w, http.StatusBadRequest, err.Error(), "")
			}
			return
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued})
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error(), "")
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		path, err := s.ReportPath(r.PathValue("id"))
		if err != nil {
			code := http.StatusConflict
			if errors.Is(err, ErrNotFound) {
				code = http.StatusNotFound
			}
			writeError(w, code, err.Error(), "")
			return
		}
		body, err := os.ReadFile(path)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error(), "")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})

	mux.HandleFunc("DELETE /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := s.Cancel(r.PathValue("id"))
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, map[string]string{"id": r.PathValue("id"), "status": "cancelling"})
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err.Error(), "")
		case errors.Is(err, ErrTerminal):
			writeError(w, http.StatusConflict, err.Error(), "")
		default:
			writeError(w, http.StatusInternalServerError, err.Error(), "")
		}
	})

	mux.HandleFunc("GET /v1/queue", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Queue())
	})

	if o != nil {
		o.SetStatus(s.Status)
		tele := obs.NewTelemetryMux(o)
		for _, p := range []string{"/metrics", "/statusz", "/healthz"} {
			mux.Handle(p, tele)
		}
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(body); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: encoding response: %v\n", err)
	}
}

func writeError(w http.ResponseWriter, code int, msg, reason string) {
	writeJSON(w, code, errorBody{Error: msg, Reason: reason})
}
