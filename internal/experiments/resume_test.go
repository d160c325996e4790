package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fullJSONLStream runs exp to completion into a fresh JSONL stream and
// returns its bytes — the reference every resume must reproduce exactly.
func fullJSONLStream(t testing.TB, exp Experiment, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := Runner{Options: opt, Sink: NewJSONLSink(&buf)}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lineEnds returns the byte offset just past each newline of data.
func lineEnds(data []byte) []int {
	var ends []int
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// TestReadJSONLPrefixEveryTruncation cuts a complete stream at every byte
// offset — every crash point a kill -9 can leave — and checks the reader
// recovers exactly the complete-cell prefix each time: never an error,
// never a torn or phantom cell, Offset always on the last complete cell
// boundary.
func TestReadJSONLPrefixEveryTruncation(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	data := fullJSONLStream(t, exp, opt)
	ends := lineEnds(data)
	cells := len(exp.Scenarios) * len(exp.Xs) * 2
	if len(ends) != cells+2 {
		t.Fatalf("stream has %d lines, want header + %d cells + footer", len(ends), cells)
	}

	for cut := 0; cut <= len(data); cut++ {
		p, err := ReadJSONLPrefix(data[:cut], exp, opt)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// Expected prefix: the complete cell lines fully inside the cut.
		wantCells, wantOffset := 0, int64(0)
		if cut >= ends[0] {
			wantOffset = int64(ends[0])
			for li := 1; li <= cells && cut >= ends[li]; li++ {
				wantCells++
				wantOffset = int64(ends[li])
			}
		}
		if len(p.Cells) != wantCells || p.Offset != wantOffset {
			t.Fatalf("cut at %d: %d cells at offset %d, want %d at %d",
				cut, len(p.Cells), p.Offset, wantCells, wantOffset)
		}
		if wantFooter := cut == len(data); p.Footer != wantFooter || p.Complete != wantFooter {
			t.Fatalf("cut at %d: footer %v complete %v", cut, p.Footer, p.Complete)
		}
		for i, c := range p.Cells {
			if c.Result.Created == 0 {
				t.Fatalf("cut at %d: recovered cell %d with an empty Result", cut, i)
			}
		}
	}
}

// FuzzReadJSONLPrefix is the resume reader's robustness target. For
// arbitrary bytes ReadJSONLPrefix must never panic, and whatever it
// accepts must be self-consistent: Offset lies inside the input, and
// re-reading just the input's first Offset bytes recovers the same cells.
// The corpus is a real grid-sweep stream, cut at and around every line
// boundary and bit-flipped.
func FuzzReadJSONLPrefix(f *testing.F) {
	exp := gridExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	full := fullJSONLStream(f, exp, opt)
	f.Add(full)
	for _, end := range lineEnds(full) {
		for _, cut := range []int{end - 2, end - 1, end, end + 1} {
			if cut >= 0 && cut <= len(full) {
				f.Add(full[:cut])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		flipped := append([]byte(nil), full...)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadJSONLPrefix(data, exp, opt)
		if err != nil {
			return
		}
		if p.Offset < 0 || p.Offset > int64(len(data)) {
			t.Fatalf("Offset %d outside the %d-byte input", p.Offset, len(data))
		}
		again, err := ReadJSONLPrefix(data[:p.Offset], exp, opt)
		if err != nil {
			t.Fatalf("re-reading the accepted %d-byte prefix failed: %v", p.Offset, err)
		}
		if again.Offset != p.Offset || !reflect.DeepEqual(again.Cells, p.Cells) {
			t.Fatalf("re-read prefix holds %d cells at offset %d, want %d at %d",
				len(again.Cells), again.Offset, len(p.Cells), p.Offset)
		}
	})
}

// TestRunnerResumeByteIdentical is the tentpole contract end to end: a
// stream cut at an arbitrary crash point, resumed through ReadJSONLPrefix
// + Runner.ResumeFrom + NewJSONLSinkResume, finishes byte-identical to
// the uninterrupted run — including resuming past a complete footer
// (nothing re-runs, the same footer is rewritten) and resuming a stream
// whose header never flushed (starts over). The tee'd memory sink must
// still see the full sweep: prefix cells are re-delivered, not skipped.
func TestRunnerResumeByteIdentical(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	full := fullJSONLStream(t, exp, opt)
	ends := lineEnds(full)
	cells := len(ends) - 2

	// Crash points: before the header flushed, on each cell boundary, torn
	// mid-line after each boundary, a torn footer, and the complete stream.
	cuts := []int{0, ends[0] - 3}
	for li := 0; li <= cells; li++ {
		cuts = append(cuts, ends[li], ends[li]+7)
	}
	cuts = append(cuts, len(full)-1, len(full))

	for _, cut := range cuts {
		if cut < 0 || cut > len(full) {
			continue
		}
		prefix, err := ReadJSONLPrefix(full[:cut], exp, opt)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		var buf bytes.Buffer
		buf.Write(full[:prefix.Offset]) // the caller's truncate-then-append
		var mem MemorySink
		r := Runner{
			Options:    opt,
			Sink:       TeeSink(&mem, NewJSONLSinkResume(&buf, prefix)),
			ResumeFrom: prefix,
		}
		if err := r.Run(context.Background(), exp); err != nil {
			t.Fatalf("cut at %d: resumed run failed: %v", cut, err)
		}
		if !bytes.Equal(buf.Bytes(), full) {
			t.Fatalf("cut at %d: resumed stream differs from the uninterrupted run (%d vs %d bytes)",
				cut, buf.Len(), len(full))
		}
		if res := mem.Results(); !res.Complete() || len(res.Cells) != cells {
			t.Fatalf("cut at %d: memory sink got %d cells, want the full %d", cut, len(mem.Results().Cells), cells)
		}
	}
}

// TestReadJSONLPrefixRejectsCorruption: the reader tolerates exactly the
// damage a crash inflicts (a truncated trailing line) and refuses
// everything else — a stream from different options, reordered cells,
// lying footers, or content after the footer.
func TestReadJSONLPrefixRejectsCorruption(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	full := fullJSONLStream(t, exp, opt)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1] // drop the empty split tail

	rejoin := func(ls [][]byte) []byte { return bytes.Join(ls, nil) }
	swap := func() []byte {
		mut := append([][]byte(nil), lines...)
		mut[1], mut[2] = mut[2], mut[1]
		return rejoin(mut)
	}
	lieFooter := func() []byte {
		mut := append([][]byte(nil), lines[:len(lines)-1]...)
		return append(rejoin(mut), []byte(`{"cells":1,"complete":false}`+"\n")...)
	}
	afterFooter := func() []byte { return append(append([]byte(nil), full...), lines[1]...) }
	badLine := func() []byte {
		mut := append([][]byte(nil), lines...)
		mut[2] = []byte("not json\n")
		return rejoin(mut)
	}
	claimComplete := func() []byte {
		head := rejoin(lines[:2])
		return append(append([]byte(nil), head...), []byte(`{"cells":1,"complete":true}`+"\n")...)
	}

	otherOpt := opt
	otherOpt.Seeds = []uint64{1}

	cases := []struct {
		name string
		data []byte
		opt  Options
		want string
	}{
		{"different options", full, otherOpt, "refusing to resume"},
		{"reordered cells", swap(), opt, "disagree"},
		{"footer count lie", lieFooter(), opt, "footer counts"},
		{"content after footer", afterFooter(), opt, "after its footer"},
		{"corrupt cell line", badLine(), opt, "not valid JSON"},
		{"premature complete claim", claimComplete(), opt, "claims a complete sweep"},
	}
	for _, tc := range cases {
		if _, err := ReadJSONLPrefix(tc.data, exp, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}

	// A prefix from the wrong sweep is also rejected by the Runner before
	// any cell runs.
	p, err := ReadJSONLPrefix(full[:int(lineEnds(full)[2])], exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Options: otherOpt, Sink: &MemorySink{}, ResumeFrom: p}
	if err := r.Run(context.Background(), exp); err == nil || !strings.Contains(err.Error(), "resume prefix") {
		t.Fatalf("Runner accepted a mismatched prefix: %v", err)
	}
}

// chokedWriter accepts the first n bytes and fails afterwards, possibly
// mid-write — the torn line a full disk leaves behind.
type chokedWriter struct {
	buf bytes.Buffer
	n   int
}

func (w *chokedWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		w.buf.Write(p[:k])
		return k, errors.New("disk full")
	}
	w.n -= len(p)
	return w.buf.Write(p)
}

// TestJSONLFooterNeverLies pins the footer invariant from both sides:
// footer.Cells always equals the complete cell lines preceding it, for an
// error-path Finish (failed sweep) just like a clean one — and a sink
// whose own write tore the stream appends no footer at all, because any
// count after a torn line would be wrong.
func TestJSONLFooterNeverLies(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 2, BaseConfig: tinyBase}

	countStream := func(data []byte) (cellLines int, footer *jsonlFooter) {
		lines := bytes.SplitAfter(data, []byte("\n"))
		for _, line := range lines {
			if len(line) == 0 || line[len(line)-1] != '\n' {
				continue // torn tail
			}
			var probe struct {
				Series *string `json:"series"`
				Cells  *int    `json:"cells"`
			}
			if json.Unmarshal(line, &probe) != nil {
				continue
			}
			switch {
			case probe.Series != nil:
				cellLines++
			case probe.Cells != nil:
				var f jsonlFooter
				if json.Unmarshal(line, &f) == nil {
					footer = &f
				}
			}
		}
		return cellLines, footer
	}

	t.Run("worker error", func(t *testing.T) {
		// x = -5 materializes an invalid TTL, so those cells fail and the
		// sweep aborts after delivering a prefix; the footer must count
		// exactly the delivered lines and carry the failure.
		bad := exp
		bad.Xs = []float64{10, -5}
		var buf bytes.Buffer
		r := Runner{Options: opt, Sink: NewJSONLSink(&buf)}
		err := r.Run(context.Background(), bad)
		if err == nil {
			t.Fatal("sweep with an invalid cell succeeded")
		}
		cellLines, footer := countStream(buf.Bytes())
		if footer == nil {
			t.Fatalf("failed sweep's stream has no footer:\n%s", &buf)
		}
		if footer.Cells != cellLines || footer.Complete || footer.Error == "" {
			t.Fatalf("footer %+v after %d cell lines", footer, cellLines)
		}
	})

	t.Run("torn write", func(t *testing.T) {
		// The writer dies mid-stream: Finish must surface the write error
		// and append no footer after the torn line.
		w := &chokedWriter{n: 600}
		sink := NewJSONLSink(w)
		if err := sink.Start(exp, opt); err != nil {
			t.Fatal(err)
		}
		var cellErr error
		for seed := uint64(1); seed <= 64 && cellErr == nil; seed++ {
			c := CellResult{Series: "FIFO-FIFO", X: 10, Seed: seed}
			c.Result.Created = 1
			cellErr = sink.Cell(c)
		}
		if cellErr == nil {
			t.Fatal("choked writer never surfaced its failure")
		}
		if err := sink.Finish(nil); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("Finish after a torn write returned %v, want the write error", err)
		}
		if _, footer := countStream(w.buf.Bytes()); footer != nil {
			t.Fatalf("torn stream carries a footer %+v — its count is unverifiable", footer)
		}
	})
}

// TestConcurrentRunnersSharedCacheDir is the shared-store half of the
// crash-safety work, run under -race in CI: two Runners splitting one
// grid between them, each with its own ContactCache over the same
// directory, recording and opening traces concurrently with
// flock-serialized writes. Both halves must come out bit-identical to the
// single-runner reference.
func TestConcurrentRunnersSharedCacheDir(t *testing.T) {
	exp := gridExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	want, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	halves := make([]Experiment, 2)
	for i := range halves {
		halves[i] = exp
		halves[i].Xs = exp.Xs[i : i+1] // split the primary axis
	}
	var wg sync.WaitGroup
	results := make([]*Results, 2)
	errs := make([]error, 2)
	for i := range halves {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cache := &ContactCache{Dir: dir, MaxBytes: 64 << 20}
			defer cache.Close()
			var mem MemorySink
			r := Runner{
				Options: Options{Seeds: opt.Seeds, Workers: opt.Workers, BaseConfig: tinyBase, ContactCache: cache},
				Sink:    &mem,
			}
			errs[i] = r.Run(context.Background(), halves[i])
			results[i] = mem.Results()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	// Reassemble: every cell of each half must be bit-identical to the
	// reference run's cell with the same coordinates.
	for i, res := range results {
		if !res.Complete() {
			t.Fatalf("runner %d finished incomplete", i)
		}
		for _, c := range res.Cells {
			found := false
			for _, w := range want.Cells {
				if w.Series == c.Series && w.X == c.X && w.Seed == c.Seed && reflect.DeepEqual(w.Grid, c.Grid) {
					found = true
					if !reflect.DeepEqual(w.Result, c.Result) {
						t.Fatalf("runner %d cell (%s x=%v seed %d) differs from the reference", i, c.Series, c.X, c.Seed)
					}
				}
			}
			if !found {
				t.Fatalf("runner %d produced an unexpected cell (%s x=%v %v seed %d)", i, c.Series, c.X, c.Grid, c.Seed)
			}
		}
	}
	// The shared store survived both writers: a third cache serves every
	// trace from disk without a single re-recording.
	probe := &ContactCache{Dir: dir}
	defer probe.Close()
	cfgs, err := CellConfigs(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if _, err := probe.Source(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if probe.Recorded() != 0 {
		t.Fatalf("shared store lost %d traces to the concurrent writers", probe.Recorded())
	}
}

// TestOpenResume pins the one resume opener the CLI and the daemon share:
// a missing or header-less file is created fresh, a partial stream is cut
// at its prefix's Offset and positioned to append, a complete stream comes
// back with a nil file and untouched bytes, and a foreign stream is an
// error.
func TestOpenResume(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, BaseConfig: tinyBase}
	data := fullJSONLStream(t, exp, opt)
	ends := lineEnds(data)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	open := func(content []byte) (*SweepPrefix, *os.File) {
		t.Helper()
		if content != nil {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, f, err := OpenResume(path, exp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			t.Cleanup(func() { f.Close() })
		}
		return p, f
	}
	fileBytes := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Missing and header-less files start over.
	for name, content := range map[string][]byte{"missing": nil, "header-less": data[:ends[0]-1]} {
		os.Remove(path)
		if p, f := open(content); p != nil || f == nil || fileBytes() != "" {
			t.Fatalf("%s: prefix %v, file %v, bytes %q; want a fresh empty file", name, p, f, fileBytes())
		}
	}

	// A partial stream with a torn tail is cut at Offset, positioned there.
	p, f := open(data[:ends[2]+5])
	if f == nil || p == nil || len(p.Cells) != 2 || p.Offset != int64(ends[2]) {
		t.Fatalf("partial: prefix %+v, file %v", p, f)
	}
	if pos, err := f.Seek(0, io.SeekCurrent); err != nil || pos != p.Offset {
		t.Fatalf("partial: positioned at %d (%v), want %d", pos, err, p.Offset)
	}
	if fileBytes() != string(data[:ends[2]]) {
		t.Fatal("partial: file not truncated at the prefix")
	}

	// A complete stream is final: nil file, bytes and mtime unchanged.
	stamp := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	p, f = open(nil)
	if f != nil || p == nil || !p.Complete || len(p.Cells) != len(ends)-2 {
		t.Fatalf("complete: prefix %+v, file %v; want the full prefix and no file", p, f)
	}
	if fi, err := os.Stat(path); err != nil || !fi.ModTime().Equal(stamp) || fileBytes() != string(data) {
		t.Fatal("complete: the stream was rewritten")
	}

	// A foreign stream is refused and left alone.
	foreign := Options{Seeds: []uint64{9}, Workers: 4, BaseConfig: tinyBase}
	if _, _, err := OpenResume(path, exp, foreign); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign stream: err %v, want a refusal", err)
	}
	if fileBytes() != string(data) {
		t.Fatal("foreign stream was modified")
	}
}
