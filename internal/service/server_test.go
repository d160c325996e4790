package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// startServer serves the API for a fresh manager over dir.
func startServer(t *testing.T, dir string) (*Manager, *httptest.Server) {
	t.Helper()
	m := openManager(t, dir)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return m, srv
}

func httpJSON(t *testing.T, method, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body:\n%s", method, url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response: %v\n%s", method, url, err, data)
		}
	}
}

// waitStateHTTP polls GET /v1/jobs/{id} until the job is terminal.
func waitStateHTTP(t *testing.T, base, id string, timeout time.Duration) Meta {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var meta Meta
		httpJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, http.StatusOK, &meta)
		if meta.State.Terminal() {
			return meta
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, meta.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerSubmitBareSpecAndEnvelope(t *testing.T) {
	m, srv := startServer(t, t.TempDir())

	// Bare spec — the `curl -d @spec.json` path.
	var bare Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(tinySpec), http.StatusCreated, &bare)
	if bare.ID != "j000001" || bare.Cells != 4 || bare.Experiment != "svc-tiny" {
		t.Fatalf("bare submit meta = %+v", bare)
	}

	// Envelope with options.
	env := fmt.Sprintf(`{"spec": %s, "options": {"seeds": [7], "workers": 2, "metric": "avg_delay_min"}}`, tinySpec)
	var wrapped Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(env), http.StatusCreated, &wrapped)
	if wrapped.ID != "j000002" || wrapped.Cells != 2 {
		t.Fatalf("envelope submit meta = %+v (want 2 cells: 1 series × 2 xs × 1 seed)", wrapped)
	}
	if wrapped.Options.Metric != "avg_delay_min" || len(wrapped.Options.Seeds) != 1 {
		t.Fatalf("envelope options not applied: %+v", wrapped.Options)
	}

	// An envelope from an older client, still carrying the retired
	// scan_workers and total_parallelism options: accepted, keys ignored.
	legacyEnv := fmt.Sprintf(`{"spec": %s, "options": {"seeds": [7], "scan_workers": 4, "total_parallelism": 8, "metric": "avg_delay_min"}}`, tinySpec)
	var legacy Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(legacyEnv), http.StatusCreated, &legacy)
	if legacy.ID != "j000003" || legacy.Cells != 2 {
		t.Fatalf("legacy envelope submit meta = %+v", legacy)
	}

	// Rejections: malformed spec, unknown metric, invalid run options,
	// oversized body.
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(`{"sweep": [`), http.StatusBadRequest, nil)
	badMetric := fmt.Sprintf(`{"spec": %s, "options": {"metric": "nope"}}`, tinySpec)
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(badMetric), http.StatusBadRequest, nil)
	dupSeeds := fmt.Sprintf(`{"spec": %s, "options": {"seeds": [2, 2]}}`, tinySpec)
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(dupSeeds), http.StatusBadRequest, nil)
	huge := bytes.Repeat([]byte("x"), maxSpecBytes+1)
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", huge, http.StatusRequestEntityTooLarge, nil)

	// Both accepted jobs run to done; the envelope job's stream reflects
	// its overridden seeds and metric.
	fin1 := waitStateHTTP(t, srv.URL, bare.ID, 60*time.Second)
	fin2 := waitStateHTTP(t, srv.URL, wrapped.ID, 60*time.Second)
	fin3 := waitStateHTTP(t, srv.URL, legacy.ID, 60*time.Second)
	if fin1.State != StateDone || fin2.State != StateDone || fin3.State != StateDone {
		t.Fatalf("finals: %+v / %+v / %+v", fin1, fin2, fin3)
	}
	want := refStream(t, []byte(tinySpec), Options{Seeds: []uint64{7}, Metric: "avg_delay_min"})
	for _, id := range []string{wrapped.ID, legacy.ID} {
		got, err := os.ReadFile(m.ResultsPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope job %s stream differs from reference under the same options", id)
		}
	}
}

func TestServerListStatusAndUnknown(t *testing.T) {
	_, srv := startServer(t, t.TempDir())
	var list struct {
		Jobs []Meta `json:"jobs"`
	}
	httpJSON(t, http.MethodGet, srv.URL+"/v1/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("fresh daemon lists jobs: %+v", list.Jobs)
	}

	var meta Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(tinySpec), http.StatusCreated, &meta)
	httpJSON(t, http.MethodGet, srv.URL+"/v1/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != meta.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}

	// Unknown job: 404 with a JSON error on every per-job route.
	for _, route := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/events", "/v1/jobs/j999999/results"} {
		var e struct {
			Error string `json:"error"`
		}
		httpJSON(t, http.MethodGet, srv.URL+route, nil, http.StatusNotFound, &e)
		if e.Error == "" {
			t.Fatalf("%s: empty error body", route)
		}
	}
	httpJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/j999999", nil, http.StatusNotFound, nil)

	waitStateHTTP(t, srv.URL, meta.ID, 60*time.Second)
}

func TestServerResultsArtifact(t *testing.T) {
	m, srv := startServer(t, t.TempDir())
	var meta Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(tinySpec), http.StatusCreated, &meta)
	final := waitStateHTTP(t, srv.URL, meta.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + meta.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(m.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, onDisk) {
		t.Fatal("served artifact differs from results.jsonl on disk")
	}
	if want := refStream(t, []byte(tinySpec), Options{}); !bytes.Equal(served, want) {
		t.Fatal("served artifact differs from the uninterrupted reference stream")
	}
}

// TestServerEventStream reads the NDJSON stream end to end: the snapshot
// line first, then lifecycle events through the terminal state, then EOF.
func TestServerEventStream(t *testing.T) {
	_, srv := startServer(t, t.TempDir())
	// Park a slow first job in the scheduler so the second is still
	// queued when the stream attaches — over HTTP roundtrips a tiny
	// parked job could finish before the GET lands.
	park := fmt.Sprintf(`{"spec": %s, "options": {"workers": 1}}`, slowSpec)
	var first, meta Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(park), http.StatusCreated, &first)
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(tinySpec), http.StatusCreated, &meta)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + meta.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no snapshot line: %v", sc.Err())
	}
	var snap struct {
		Job Meta `json:"job"`
	}
	if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot line: %v\n%s", err, sc.Text())
	}
	if snap.Job.ID != meta.ID {
		t.Fatalf("snapshot = %+v", snap.Job)
	}

	var types []string
	var lastSeq int64
	cellsFinished := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line: %v\n%s", err, sc.Text())
		}
		if ev.Job != meta.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, ev.Type)
		if ev.Type == "cell_finished" {
			cellsFinished++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cellsFinished != 4 {
		t.Fatalf("saw %d cell_finished events, want 4 (%v)", cellsFinished, types)
	}
	if len(types) == 0 || types[len(types)-1] != "state" {
		t.Fatalf("stream did not end with the terminal state event: %v", types)
	}

	// The now-terminal job streams the snapshot line only.
	waitStateHTTP(t, srv.URL, meta.ID, 10*time.Second)
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + meta.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimRight(string(body), "\n"), "\n"); n != 0 {
		t.Fatalf("terminal stream has %d extra lines:\n%s", n+1, body)
	}

	waitStateHTTP(t, srv.URL, first.ID, 60*time.Second)
}

func TestServerCancel(t *testing.T) {
	_, srv := startServer(t, t.TempDir())
	env := fmt.Sprintf(`{"spec": %s, "options": {"workers": 1}}`, slowSpec)
	var long, queued Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(env), http.StatusCreated, &long)
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(tinySpec), http.StatusCreated, &queued)

	// The queued job cancels instantly.
	var got Meta
	httpJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+queued.ID, nil, http.StatusOK, &got)
	if got.State != StateCancelled {
		t.Fatalf("queued DELETE state = %s", got.State)
	}
	// The running one winds down cooperatively.
	httpJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+long.ID, nil, http.StatusOK, nil)
	final := waitStateHTTP(t, srv.URL, long.ID, 30*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("running DELETE final = %+v", final)
	}
}

// TestServerEventStreamClientDisconnect pins that an abandoned events
// connection detaches its subscriber rather than leaking it.
func TestServerEventStreamClientDisconnect(t *testing.T) {
	m, srv := startServer(t, t.TempDir())
	env := fmt.Sprintf(`{"spec": %s, "options": {"workers": 1}}`, slowSpec)
	var meta Meta
	httpJSON(t, http.MethodPost, srv.URL+"/v1/jobs", []byte(env), http.StatusCreated, &meta)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+meta.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the snapshot line, then hang up mid-stream.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no snapshot line: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	// The handler's deferred stop() must run; poll until the subscriber
	// set drains.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		e := m.jobs[meta.ID]
		e.hub.mu.Lock()
		n := len(e.hub.subs)
		e.hub.mu.Unlock()
		m.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still attached after disconnect", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(meta.ID); err != nil {
		t.Fatal(err)
	}
	waitStateHTTP(t, srv.URL, meta.ID, 30*time.Second)
}
