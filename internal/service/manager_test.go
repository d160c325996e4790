package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vdtn/internal/experiments"
)

// tinySpec is a 4-cell sweep small enough to finish in tens of
// milliseconds — the unit-test workhorse.
const tinySpec = `{
  "name": "svc-tiny",
  "duration_hours": 0.5,
  "vehicles": 6,
  "relays": 1,
  "vehicle_buffer_mb": 5,
  "relay_buffer_mb": 10,
  "sweep": {
    "id": "svc-tiny",
    "axis": "ttl_min",
    "values": [10, 20],
    "metric": "delivery_prob",
    "seeds": [1, 2]
  },
  "series": [
    {"name": "Epidemic/FIFO", "protocol": "epidemic", "policy": "fifo"}
  ]
}`

// slowSpec runs long enough under one worker that a mid-run shutdown or
// cancel reliably lands between cells.
const slowSpec = `{
  "name": "svc-slow",
  "duration_hours": 4,
  "vehicles": 14,
  "relays": 2,
  "vehicle_buffer_mb": 10,
  "relay_buffer_mb": 20,
  "sweep": {
    "id": "svc-slow",
    "axes": [
      {"axis": "ttl_min", "values": [15, 30, 45]},
      {"axis": "copies", "values": [4, 12]}
    ],
    "metric": "delivery_prob",
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8]
  },
  "series": [
    {"name": "SprayAndWait/Lifetime", "protocol": "spraywait", "policy": "lifetime"}
  ]
}`

// openManager opens a Manager over dir, failing the test on error and
// closing it on cleanup.
func openManager(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitState polls the job until it reaches a terminal state.
func waitState(t *testing.T, m *Manager, id string, timeout time.Duration) Meta {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		meta, err := m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.State.Terminal() {
			return meta
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, meta.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// refStream renders the reference artifact: the same spec run once,
// uninterrupted, through the same Runner/JSONLSink pipeline the daemon
// uses. Every service-produced results.jsonl must match it byte for
// byte.
func refStream(t *testing.T, spec []byte, opts Options) []byte {
	t.Helper()
	exp, err := experiments.LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	exp, err = applyMetric(exp, opts.Metric)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := experiments.Runner{Options: opts.runOptions(), Sink: experiments.NewJSONLSink(&buf)}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestManagerRunsJobToDone(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir)
	meta, err := m.Submit([]byte(tinySpec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "j000001" || meta.State != StateQueued || meta.Cells != 4 {
		t.Fatalf("submit meta = %+v", meta)
	}
	final := waitState(t, m, meta.ID, 30*time.Second)
	if final.State != StateDone || final.Done != 4 || final.Error != "" {
		t.Fatalf("final meta = %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}

	got, err := os.ReadFile(m.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := refStream(t, []byte(tinySpec), Options{}); !bytes.Equal(got, want) {
		t.Fatal("daemon results.jsonl differs from the uninterrupted reference stream")
	}

	// The durable snapshot agrees with the live view.
	onDisk, err := m.store.ReadMeta(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateDone || onDisk.Done != 4 {
		t.Fatalf("on-disk meta = %+v", onDisk)
	}
}

func TestManagerSubmitValidation(t *testing.T) {
	m := openManager(t, t.TempDir())
	if _, err := m.Submit([]byte(`{"sweep": {`), Options{}); err == nil {
		t.Fatal("malformed spec accepted")
	}
	if _, err := m.Submit([]byte(tinySpec), Options{Metric: "no-such-metric"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	for _, bad := range []Options{{Scale: -1}, {Workers: -2}, {Seeds: []uint64{3, 3}}} {
		if _, err := m.Submit([]byte(tinySpec), bad); err == nil {
			t.Fatalf("invalid run options %+v accepted", bad)
		}
	}
	if len(m.Jobs()) != 0 {
		t.Fatalf("rejected submissions left jobs behind: %+v", m.Jobs())
	}
	// A valid metric override runs — and lands in the stream's header.
	meta, err := m.Submit([]byte(tinySpec), Options{Metric: "avg_delay_min"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, meta.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
	got, err := os.ReadFile(m.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	want := refStream(t, []byte(tinySpec), Options{Metric: "avg_delay_min"})
	if !bytes.Equal(got, want) {
		t.Fatal("metric-overridden stream differs from reference")
	}
}

func TestManagerFIFOOrder(t *testing.T) {
	m := openManager(t, t.TempDir())
	var ids []string
	for i := 0; i < 3; i++ {
		meta, err := m.Submit([]byte(tinySpec), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, meta.ID)
	}
	var finals []Meta
	for _, id := range ids {
		finals = append(finals, waitState(t, m, id, 60*time.Second))
	}
	for i, f := range finals {
		if f.State != StateDone {
			t.Fatalf("job %s = %+v", f.ID, f)
		}
		// One sweep at a time, FIFO: each job starts no earlier than its
		// predecessor finished.
		if i > 0 && f.StartedAt.Before(*finals[i-1].FinishedAt) {
			t.Fatalf("job %s started %v, before %s finished %v — not FIFO single-flight",
				f.ID, f.StartedAt, finals[i-1].ID, finals[i-1].FinishedAt)
		}
	}
}

func TestManagerCancelQueuedAndRunning(t *testing.T) {
	m := openManager(t, t.TempDir())
	// Job 1 occupies the single scheduler slot for a while...
	long, err := m.Submit([]byte(slowSpec), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ...so job 2 sits queued and its cancel is the queued path.
	queued, err := m.Submit([]byte(tinySpec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateCancelled {
		t.Fatalf("queued cancel state = %s", meta.State)
	}

	// Cancel the running job cooperatively; it must land terminal.
	if _, err := m.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, long.ID, 30*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("running cancel final = %+v", final)
	}
	// Idempotent on a terminal job.
	again, err := m.Cancel(long.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel = %+v, %v", again, err)
	}
	// Cancelled is terminal: a restart must NOT re-admit either job.
	m.Close()
	m2 := openManager(t, m.cfg.DataDir)
	for _, id := range []string{long.ID, queued.ID} {
		got, err := m2.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateCancelled || got.Restarts != 0 {
			t.Fatalf("job %s after restart = %+v", id, got)
		}
	}
}

// TestManagerCrashResumeByteIdentical is the subsystem's core invariant:
// a results stream cut at an arbitrary point — simulating the file a
// kill -9 left behind, meta still saying "running" — must, after the
// store is reopened, finish byte-identical to an uninterrupted run. The
// cut matrix covers every lifecycle window: nothing flushed, header
// only, mid-cells, a torn line, all cells but no footer, and a complete
// stream (where resumption must leave the bytes untouched). One more case
// writes meta.json as an older daemon did, with the retired scan_workers
// and total_parallelism options, which must load and resume unchanged.
func TestManagerCrashResumeByteIdentical(t *testing.T) {
	golden := refStream(t, []byte(tinySpec), Options{})
	ends := lineEnds(golden)
	cells := 4
	if len(ends) != cells+2 {
		t.Fatalf("golden has %d lines, want %d", len(ends), cells+2)
	}
	cuts := []struct {
		name       string
		cut        int
		resumed    int
		legacyMeta bool
	}{
		{"empty", 0, 0, false},
		{"header-only", ends[0], 0, false},
		{"one-cell", ends[1], 1, false},
		{"torn-line", ends[2] + 7, 2, false},
		{"all-cells-no-footer", ends[cells], cells, false},
		{"complete", len(golden), cells, false},
		{"retired-worker-keys", ends[2], 2, true},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now().UTC()
			meta := Meta{
				ID: "j000001", State: StateRunning, Experiment: "svc-tiny",
				Cells: cells, SubmittedAt: now, StartedAt: &now,
			}
			if err := store.Create(meta, []byte(tinySpec)); err != nil {
				t.Fatal(err)
			}
			if tc.legacyMeta {
				writeLegacyMeta(t, store, meta)
			}
			if err := os.WriteFile(store.ResultsPath(meta.ID), golden[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}

			m := openManager(t, dir)
			final := waitState(t, m, meta.ID, 30*time.Second)
			if final.State != StateDone || final.Restarts != 1 {
				t.Fatalf("final = %+v, want done with 1 restart", final)
			}
			if final.Resumed != tc.resumed {
				t.Fatalf("Resumed = %d, want %d", final.Resumed, tc.resumed)
			}
			got, err := os.ReadFile(store.ResultsPath(meta.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("resumed stream differs from golden (cut %d)", tc.cut)
			}
		})
	}
}

// writeLegacyMeta rewrites meta's meta.json with the scan_workers and
// total_parallelism options an older daemon persisted.
func writeLegacyMeta(t *testing.T, store *Store, meta Meta) {
	t.Helper()
	data, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["options"] = map[string]any{"scan_workers": 4, "total_parallelism": 8}
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.jobDir(meta.ID), "meta.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineEnds returns the byte offset just past each newline.
func lineEnds(data []byte) []int {
	var ends []int
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// TestManagerShutdownResume is the graceful flavor: Close mid-sweep
// leaves the job "running" on disk; reopening the same data dir
// re-admits, resumes, and finishes byte-identical.
func TestManagerShutdownResume(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m1.Submit([]byte(slowSpec), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one cell has completed, so the shutdown lands
	// genuinely mid-sweep and the resume has a non-empty prefix to keep.
	ch, stop, _, err := m1.SubscribeEvents(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ch != nil {
		deadline := time.After(60 * time.Second)
	waitCell:
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					break waitCell
				}
				if ev.Type == "cell_finished" && ev.Error == "" {
					break waitCell
				}
			case <-deadline:
				t.Fatal("no cell finished within 60s")
			}
		}
		stop()
	}
	m1.Close()

	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := store.ReadMeta(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("state after shutdown = %s, want running (unfinished work)", onDisk.State)
	}

	m2 := openManager(t, dir)
	final := waitState(t, m2, meta.ID, 120*time.Second)
	if final.State != StateDone || final.Restarts != 1 || final.Resumed == 0 {
		t.Fatalf("final = %+v, want done, 1 restart, resumed > 0", final)
	}
	got, err := os.ReadFile(m2.ResultsPath(meta.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := refStream(t, []byte(slowSpec), Options{}); !bytes.Equal(got, want) {
		t.Fatal("post-shutdown resumed stream differs from uninterrupted reference")
	}
}

// TestManagerEventStream checks a subscriber sees the job's lifecycle in
// order: state running, sweep_started, cells, sweep_finished, state
// done — then the channel closes.
func TestManagerEventStream(t *testing.T) {
	m := openManager(t, t.TempDir())
	// A first job occupies the scheduler so the second is still queued
	// when we subscribe — the subscription reliably sees the full
	// lifecycle rather than racing a fast sweep to the terminal state.
	if _, err := m.Submit([]byte(tinySpec), Options{}); err != nil {
		t.Fatal(err)
	}
	meta, err := m.Submit([]byte(tinySpec), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, snap, err := m.SubscribeEvents(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != meta.ID {
		t.Fatalf("snapshot = %+v", snap)
	}
	if ch == nil {
		t.Fatal("no channel for a live job")
	}
	defer stop()

	var types []string
	var finished int
	deadline := time.After(60 * time.Second)
	for ch != nil {
		select {
		case ev, ok := <-ch:
			if !ok {
				ch = nil
				break
			}
			types = append(types, ev.Type)
			if ev.Type == "cell_finished" {
				finished++
				if ev.Cell == nil || ev.Cell.Total != 4 {
					t.Fatalf("cell_finished event without coordinates: %+v", ev)
				}
			}
		case <-deadline:
			t.Fatalf("stream never closed; saw %v", types)
		}
	}
	if finished != 4 {
		t.Fatalf("saw %d cell_finished events, want 4 (%v)", finished, types)
	}
	want := map[string]bool{"state": true, "sweep_started": true, "sweep_finished": true}
	for _, ty := range types {
		delete(want, ty)
	}
	if len(want) != 0 {
		t.Fatalf("missing event types %v in %v", want, types)
	}
	if last := types[len(types)-1]; last != "state" {
		t.Fatalf("stream ended with %q, want terminal state event", last)
	}

	// Subscribing to the now-terminal job yields snapshot only.
	ch2, stop2, snap2, err := m.SubscribeEvents(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ch2 != nil || stop2 != nil || !snap2.State.Terminal() {
		t.Fatalf("terminal subscribe = ch %v, snap %+v", ch2, snap2)
	}
}
