package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
)

// The wire protocol, one endpoint per coordinator method:
//
//	GET  /v1/sweep          -> SweepInfo (open: the handshake)
//	POST /v1/lease          {worker, plan} -> LeaseReply
//	POST /v1/heartbeat      {worker, plan, lease} -> 204
//	POST /v1/fail           {worker, plan, lease, error} -> 204
//	POST /v1/complete       ?worker=&plan=&lease=  body: JSONL records -> CompleteReply
//	GET  /v1/progress       -> Progress
//	GET  /v1/dataset/{key}  -> the content-addressed dataset file bytes
//
// Every request except the handshake and the reads carries the plan
// fingerprint; a mismatch is 409 Conflict. An unknown lease id is 404,
// a stale one (expired and re-queued) is 410 Gone, an unusable upload
// is 400, and a valid upload the coordinator fails to spill is 500 (in
// both cases the range is already re-queued by the time the response
// is written). A dataset key the sweep does not replay is 404; a
// dataset the coordinator fails to materialize is 500, and a serving
// file that vanished mid-request is 503, so workers retry both. The
// served bytes carry their own CRC (the columnar file format), so
// receivers validate the payload end to end without a separate digest
// header.

// workerRequest is the JSON body of lease, heartbeat and fail requests.
type workerRequest struct {
	Worker string `json:"worker"`
	Plan   string `json:"plan"`
	Lease  string `json:"lease,omitempty"`
	Error  string `json:"error,omitempty"`
}

// NewHandler serves the coordinator protocol.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Info())
	})
	mux.HandleFunc("GET /v1/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Progress())
	})
	mux.HandleFunc("GET /v1/dataset/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		path, err := c.DatasetPath(key)
		if err != nil {
			// Only an unknown key is the permanent 404; a failed
			// materialization is this side's fault, and the worker retries.
			code := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownDataset) {
				code = http.StatusNotFound
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		if n := streamFile(w, path); n > 0 {
			c.dsBytes.Add(n)
			c.logf("dataset %s served (%d bytes)", key, n)
		}
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req workerRequest
		if !readJSON(w, r, &req) {
			return
		}
		reply, err := c.Lease(req.Worker, req.Plan)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req workerRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.Lease, req.Worker, req.Plan); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req workerRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Fail(req.Lease, req.Worker, req.Plan, req.Error); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		reply, err := c.Complete(q.Get("lease"), q.Get("worker"), q.Get("plan"), r.Body)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	return mux
}

// streamFile streams one content-addressed dataset file with its length
// declared up front. A file that vanished after DatasetPath resolved it
// (a racing purge) answers 503: transient, not an unknown key, so the
// worker retries and the next DatasetPath re-materializes the file. It
// returns the bytes written; receivers re-validate the payload whole,
// so a stream cut mid-copy is just a failed attempt on their side.
func streamFile(w http.ResponseWriter, path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		code := http.StatusInternalServerError
		if os.IsNotExist(err) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return 0
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return 0
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	n, _ := io.Copy(w, f)
	return n
}

// readJSON decodes one request body, answering 400 on garbage.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decoding request: %v", err)})
		return false
	}
	return true
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps coordinator errors onto protocol status codes. An error
// with no sentinel is the coordinator's own failure.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrPlanMismatch):
		code = http.StatusConflict
	case errors.Is(err, ErrUnknownLease):
		code = http.StatusNotFound
	case errors.Is(err, ErrLeaseGone):
		code = http.StatusGone
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
