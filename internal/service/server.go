package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
)

// maxSpecBytes bounds a POST /v1/jobs body; real specs are a few KB.
const maxSpecBytes = 4 << 20

// NewHandler returns the daemon's HTTP API over m:
//
//	POST   /v1/jobs             submit a job (spec, or {"spec":…,"options":…})
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job's state and progress
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events live NDJSON event stream
//	GET    /v1/jobs/{id}/results the results.jsonl artifact
//
// See docs/SERVICE.md for the wire reference. Errors are JSON bodies
// {"error": "..."} with conventional status codes; unknown jobs are 404.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { submitJob(m, w, r) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []Meta `json:"jobs"`
		}{Jobs: m.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		meta, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, meta)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		meta, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, meta)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) { streamEvents(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) { serveResults(m, w, r) })
	return mux
}

// submitEnvelope is the optional POST /v1/jobs wrapper: a raw spec plus
// run options. A body without a "spec" key is treated as a bare spec
// with default options, so `curl -d @spec.json` works unwrapped.
type submitEnvelope struct {
	Spec    json.RawMessage `json:"spec"`
	Options Options         `json:"options"`
}

// decodeSubmitBody splits a POST /v1/jobs body into the spec and the run
// options: an envelope with a non-empty "spec" gives both, and anything
// else is a bare spec with default options. It never fails; whether the
// spec is a valid sweep is for Submit to decide.
func decodeSubmitBody(body []byte) (spec []byte, opts Options) {
	var env submitEnvelope
	if err := json.Unmarshal(body, &env); err == nil && len(env.Spec) > 0 {
		return env.Spec, env.Options
	}
	return body, Options{}
}

func submitJob(m *Manager, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeErrorStatus(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		writeErrorStatus(w, http.StatusRequestEntityTooLarge, fmt.Errorf("service: spec body over %d bytes", maxSpecBytes))
		return
	}
	meta, err := m.Submit(decodeSubmitBody(body))
	if err != nil {
		writeErrorStatus(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, meta)
}

// streamEvents serves the job's live NDJSON event stream: one snapshot
// line (the job's Meta, under "job") followed by events as they happen,
// each flushed immediately. The stream ends when the job goes terminal,
// the client disconnects, or the daemon shuts down. For an
// already-terminal job the snapshot line is the whole stream.
func streamEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	ch, stop, meta, err := m.SubscribeEvents(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if stop != nil {
		defer stop()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Job Meta `json:"job"`
	}{Job: meta}); err != nil {
		return
	}
	rc.Flush()
	if ch == nil {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// serveResults serves the job's results.jsonl bytes as they stand: the
// complete artifact for a done job, the completed prefix (plus footer,
// if the attempt got to write one) for anything else. 404 until the job
// has started writing.
func serveResults(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := m.Job(id); err != nil {
		writeError(w, err)
		return
	}
	f, err := os.Open(m.ResultsPath(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeErrorStatus(w, http.StatusNotFound, fmt.Errorf("service: job %s has no results yet", id))
			return
		}
		writeError(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrNoJob) {
		status = http.StatusNotFound
	}
	writeErrorStatus(w, status, err)
}

func writeErrorStatus(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
