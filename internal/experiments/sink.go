package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
)

// ResultSink consumes a sweep's finished cells as they complete, the
// pluggable replacement for the implicit in-memory-only Results store.
// The runner drives one sink per Run call:
//
//	Start(exp, opt)   once, before any cell
//	Cell(c)           once per finished cell, in aggregation order
//	                  (series-major, then grid combination, then x, then
//	                  seed), never concurrently
//	Finish(runErr)    exactly once after Start succeeded — nil runErr for
//	                  a complete sweep, the run's error (a failing cell's
//	                  coordinates, or ctx.Err() for a cancelled sweep)
//	                  otherwise; sinks flush buffered output here even
//	                  when runErr is non-nil, so an interrupted sweep's
//	                  partial results survive
//
// Because delivery is in aggregation order, a sink never sees a torn or
// out-of-order cell: an interrupted sweep's sink holds a clean,
// deterministic prefix of complete cells. Any sink error aborts the
// sweep.
type ResultSink interface {
	Start(exp Experiment, opt Options) error
	Cell(c CellResult) error
	Finish(runErr error) error
}

// MemorySink accumulates cells into a Results — the sweep store RunE
// returns and every table/CSV/JSON renderer consumes. The zero value is
// ready to use; Results is valid (as a partial store) even after an
// interrupted sweep.
type MemorySink struct {
	res *Results
}

// Start implements ResultSink.
func (s *MemorySink) Start(exp Experiment, opt Options) error {
	s.res = &Results{Experiment: exp, Options: opt}
	return nil
}

// Cell implements ResultSink.
func (s *MemorySink) Cell(c CellResult) error {
	if s.res == nil {
		return errors.New("experiments: MemorySink.Cell before Start")
	}
	s.res.Cells = append(s.res.Cells, c)
	return nil
}

// Finish implements ResultSink. The accumulated Results stay available.
func (s *MemorySink) Finish(error) error { return nil }

// Results returns the accumulated store: every delivered cell in
// aggregation order. After an interrupted sweep it holds the completed
// prefix; Table/CSV/JSON render the complete (series, x) groups in it.
// Nil before Start.
func (s *MemorySink) Results() *Results { return s.res }

// jsonlHeader is the first line of a JSONL sweep stream: the sweep's
// identity, enough to interpret the cell lines without the spec file.
type jsonlHeader struct {
	Format     string     `json:"format"`
	Experiment string     `json:"experiment"`
	Title      string     `json:"title,omitempty"`
	Axis       string     `json:"axis"`
	AxisLabel  string     `json:"axis_label"`
	Grid       []GridAxis `json:"grid,omitempty"`
	Metric     Metric     `json:"metric"`
	Seeds      []uint64   `json:"seeds"`
	Scale      float64    `json:"scale"`
	Xs         []float64  `json:"xs"`
	Series     []string   `json:"series"`
}

// jsonlCell is one cell line of a JSONL sweep stream.
type jsonlCell struct {
	Series string             `json:"series"`
	X      float64            `json:"x"`
	Grid   map[string]float64 `json:"grid,omitempty"`
	Seed   uint64             `json:"seed"`
	Result sim.Result         `json:"result"`
}

// jsonlFooter terminates a JSONL sweep stream. Its presence is the
// completeness check: a stream without one was interrupted mid-sweep (a
// crash or lost write), Complete reports whether every cell is present,
// and Error carries an interrupted sweep's reason. Cells counts the cell
// lines written, so even a partial stream is self-describing.
type jsonlFooter struct {
	Cells    int    `json:"cells"`
	Complete bool   `json:"complete"`
	Error    string `json:"error,omitempty"`
}

// jsonlFormat versions the stream layout; bump on breaking changes.
const jsonlFormat = "vdtn-sweep-jsonl/1"

// jsonlHeaderFor builds the header line Start writes — shared with the
// reader side, which validates a stream byte-for-byte against it.
func jsonlHeaderFor(exp Experiment, opt Options) jsonlHeader {
	h := jsonlHeader{
		Format:     jsonlFormat,
		Experiment: exp.ID,
		Title:      exp.Title,
		Axis:       exp.Axis,
		AxisLabel:  scenario.AxisLabel(exp.Axis),
		Grid:       exp.Grid,
		Metric:     exp.Metric,
		Seeds:      opt.Seeds,
		Scale:      opt.Scale,
		Xs:         exp.Xs,
	}
	for si := range exp.Scenarios {
		h.Series = append(h.Series, exp.Scenarios[si].Name)
	}
	return h
}

// JSONLSink streams finished cells as JSON lines: one compact header
// line identifying the sweep, one line per cell carrying the complete
// sim.Result, and one footer line recording the cell count and outcome.
// Cells are written in aggregation order, so the byte stream of a sweep
// is deterministic (pinned by a golden test) and, unlike the in-memory
// store, the sweep's full result set never has to fit in RAM — the
// ROADMAP path to sweeps bigger than memory. An interrupted sweep's
// stream holds the completed prefix plus a footer naming the reason;
// stream readers distinguish the three terminal states by the footer:
// present and complete, present and incomplete (cancelled or failed
// sweep, prefix valid), absent (the writer itself died — ReadJSONLPrefix
// recovers the clean cell prefix from such a stream).
type JSONLSink struct {
	w          *bufio.Writer
	enc        *json.Encoder
	cells      int
	total      int
	skip       int  // delivered cells already in the underlying stream
	skipHeader bool // the header line is already in the underlying stream
	started    bool
	werr       error // first write failure; the stream may end in a torn line
}

// NewJSONLSink returns a sink streaming to w. The caller keeps ownership
// of w (and closes it after the sweep); Finish flushes.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// NewJSONLSinkResume returns a sink appending to w, where w's underlying
// stream already holds prefix — what ReadJSONLPrefix validated, with the
// caller having truncated everything after SweepPrefix.Offset. Start
// writes no header when the stream already has one (Offset > 0), the
// first len(prefix.Cells) delivered cells are counted but not re-written,
// and every later cell appends normally, so the finished stream is
// byte-identical to an uninterrupted run's. A nil or empty prefix (a
// stream whose header never flushed) behaves exactly like NewJSONLSink:
// the stream starts over.
func NewJSONLSinkResume(w io.Writer, prefix *SweepPrefix) *JSONLSink {
	s := NewJSONLSink(w)
	if prefix != nil {
		s.skip = len(prefix.Cells)
		s.skipHeader = prefix.Offset > 0
	}
	return s
}

// Start implements ResultSink: it writes the header line (unless the
// stream is being resumed past an existing one).
func (s *JSONLSink) Start(exp Experiment, opt Options) error {
	s.started = true
	s.cells = 0
	s.total = len(cellJobs(exp, opt))
	if s.skipHeader {
		// Resume: the header (and the first skip cell lines) are already
		// in the underlying stream; rewriting it would corrupt the bytes.
		return nil
	}
	return s.enc.Encode(jsonlHeaderFor(exp, opt))
}

// Cell implements ResultSink: one line per cell, written through the
// buffer (flushed at Finish).
func (s *JSONLSink) Cell(c CellResult) error {
	if !s.started {
		return errors.New("experiments: JSONLSink.Cell before Start")
	}
	if s.werr != nil {
		return s.werr
	}
	if s.cells < s.skip {
		// Resume: this cell's line is already in the underlying stream
		// (ReadJSONLPrefix verified it); count it without re-writing.
		s.cells++
		return nil
	}
	line := jsonlCell{Series: c.Series, X: c.X, Seed: c.Seed, Result: c.Result}
	if len(c.Grid) > 0 {
		line.Grid = settingsMap(c.Grid)
	}
	if err := s.enc.Encode(line); err != nil {
		// The stream may now end in a torn line; remember it, so Finish
		// does not append a footer whose count the stream contradicts.
		s.werr = err
		return err
	}
	s.cells++
	return nil
}

// Finish implements ResultSink: it writes the footer and flushes. The
// footer is written for failed and cancelled sweeps too — the completed
// prefix is valid data and its reason is recorded. The one exception is a
// sink whose own Cell write failed: the stream may end in a torn line, so
// a footer after it would count cells a reader cannot find. The invariant
// footer readers rely on is that a footer's Cells always equals the
// number of complete cell lines preceding it.
func (s *JSONLSink) Finish(runErr error) error {
	if s.werr != nil {
		_ = s.w.Flush()
		return s.werr
	}
	f := jsonlFooter{Cells: s.cells, Complete: runErr == nil && s.cells == s.total}
	if runErr != nil {
		f.Error = runErr.Error()
	}
	if err := s.enc.Encode(f); err != nil {
		return err
	}
	return s.w.Flush()
}

// SweepPrefix is the validated readable prefix of a JSONL sweep stream —
// what ReadJSONLPrefix recovers from a finished, interrupted, or
// crash-truncated stream, and what Runner.ResumeFrom consumes to finish
// the sweep without re-simulating it.
type SweepPrefix struct {
	// Cells are the complete cells of the stream, in aggregation order,
	// each carrying its full decoded sim.Result.
	Cells []CellResult
	// Offset is the byte offset just past the last complete cell line
	// (past the header for an empty prefix; 0 when the header itself never
	// flushed). Truncate the stream here and append to resume it.
	Offset int64
	// Footer reports whether a footer line terminated the stream: false
	// means the writer died mid-sweep.
	Footer bool
	// Complete reports a footer that recorded a complete sweep; resuming
	// such a stream re-runs nothing and rewrites the same footer.
	Complete bool
}

// cutLine splits the first newline-terminated line (inclusive of the
// newline) off b. complete is false when no newline remains — the
// crash-truncated tail of a stream.
func cutLine(b []byte) (line, rest []byte, complete bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return b, nil, false
	}
	return b[:i+1], b[i+1:], true
}

// ReadJSONLPrefix decodes a JSONL sweep stream written for exp under opt
// and returns its clean complete-cell prefix. It is the reader side of
// JSONLSink's format, built for crash recovery:
//
//   - The header line must match what a fresh sink would write for
//     (exp, opt) byte for byte — a stream from a different sweep, seed
//     list, or scale is an error, never silently resumed. A stream whose
//     header never made it to disk (the writer died before the first
//     flush) yields an empty prefix with Offset 0: start over.
//   - Every complete cell line is validated against the sweep's
//     aggregation order (series, x, grid, seed must match the cell's
//     coordinates) and decoded; the in-order delivery contract guarantees
//     the stream is a clean prefix, and any disagreement is corruption,
//     reported as an error.
//   - A truncated trailing line — the torn tail a kill -9 leaves behind —
//     is tolerated: the prefix ends just before it.
//   - A footer, when present, must count exactly the cell lines before it
//     and is excluded from Offset, so resuming truncates it away and
//     Finish writes a fresh one.
//
// Appending the missing cells and a footer at Offset therefore produces a
// stream byte-identical to an uninterrupted run's — the contract
// Runner.ResumeFrom and NewJSONLSinkResume implement together.
func ReadJSONLPrefix(data []byte, exp Experiment, opt Options) (*SweepPrefix, error) {
	if err := exp.validate(); err != nil {
		return nil, err
	}
	opt = opt.normalizedFor(exp)
	jobs := cellJobs(exp, opt)

	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(jsonlHeaderFor(exp, opt)); err != nil {
		return nil, err
	}

	p := &SweepPrefix{}
	line, rest, complete := cutLine(data)
	if !complete {
		return p, nil
	}
	if !bytes.Equal(line, want.Bytes()) {
		return nil, fmt.Errorf("experiments: JSONL header does not match %s under these options — refusing to resume a different sweep", exp.ID)
	}
	p.Offset = int64(len(line))

	for len(rest) > 0 {
		line, next, complete := cutLine(rest)
		if !complete {
			break // crash-truncated trailing line: the prefix ends before it
		}
		if p.Footer {
			return nil, errors.New("experiments: JSONL stream continues after its footer")
		}
		var probe struct {
			Series *string `json:"series"`
			Cells  *int    `json:"cells"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("experiments: JSONL line %d is not valid JSON: %v", len(p.Cells)+2, err)
		}
		switch {
		case probe.Series != nil:
			var c jsonlCell
			if err := json.Unmarshal(line, &c); err != nil {
				return nil, fmt.Errorf("experiments: JSONL cell %d: %v", len(p.Cells), err)
			}
			ji := len(p.Cells)
			if ji >= len(jobs) {
				return nil, fmt.Errorf("experiments: JSONL stream holds more cells than the sweep's %d", len(jobs))
			}
			// The canonical []Setting form of the expected cell doubles as
			// the decoded cell's Grid: settingsMap equality proved they
			// agree, and re-delivery to sinks then reproduces the writer's
			// canonical ordering.
			wantCell := cellResult(exp, jobs[ji], sim.Result{})
			if c.Series != wantCell.Series || c.X != wantCell.X || c.Seed != wantCell.Seed ||
				!gridMapEqual(c.Grid, wantCell.Grid) {
				return nil, fmt.Errorf("experiments: JSONL cell %d is (%q, x=%v, seed %d), want (%q, x=%v, seed %d): stream and sweep disagree",
					ji, c.Series, c.X, c.Seed, wantCell.Series, wantCell.X, wantCell.Seed)
			}
			wantCell.Result = c.Result
			p.Cells = append(p.Cells, wantCell)
			p.Offset += int64(len(line))
		case probe.Cells != nil:
			var f jsonlFooter
			if err := json.Unmarshal(line, &f); err != nil {
				return nil, fmt.Errorf("experiments: JSONL footer: %v", err)
			}
			if f.Cells != len(p.Cells) {
				return nil, fmt.Errorf("experiments: JSONL footer counts %d cells, the stream holds %d", f.Cells, len(p.Cells))
			}
			if f.Complete && len(p.Cells) != len(jobs) {
				return nil, fmt.Errorf("experiments: JSONL footer claims a complete sweep with %d of %d cells", len(p.Cells), len(jobs))
			}
			p.Footer, p.Complete = true, f.Complete
			// The footer is excluded from Offset: resuming truncates it
			// away and writes a fresh one after the appended cells.
		default:
			return nil, fmt.Errorf("experiments: JSONL line %d is neither a cell nor a footer", len(p.Cells)+2)
		}
		rest = next
	}
	return p, nil
}

// gridMapEqual compares a decoded cell's grid assignments against the
// canonical settings form.
func gridMapEqual(got map[string]float64, want []Setting) bool {
	if len(got) != len(want) {
		return false
	}
	for _, s := range want {
		v, ok := got[s.Axis]
		if !ok || v != s.Value {
			return false
		}
	}
	return true
}

// validateFor checks that the prefix really is a prefix of exp's cell
// grid under opt: no longer than the sweep, every cell's coordinates
// matching aggregation order. The Runner applies it before skipping any
// work, so a prefix pointed at the wrong sweep fails fast instead of
// producing a silently misaligned result stream.
func (p *SweepPrefix) validateFor(exp Experiment, opt Options, jobs []job) error {
	if len(p.Cells) > len(jobs) {
		return fmt.Errorf("experiments: resume prefix holds %d cells, the sweep only %d", len(p.Cells), len(jobs))
	}
	for i, c := range p.Cells {
		want := cellResult(exp, jobs[i], c.Result)
		if c.Series != want.Series || c.X != want.X || c.Seed != want.Seed ||
			!gridMapEqual(settingsMap(c.Grid), want.Grid) {
			return fmt.Errorf("experiments: resume prefix cell %d is (%q, x=%v, seed %d), want (%q, x=%v, seed %d)",
				i, c.Series, c.X, c.Seed, want.Series, want.X, want.Seed)
		}
	}
	return nil
}

// TeeSink duplicates every sink call to each of sinks in order: render
// tables from a MemorySink while a JSONLSink archives the same sweep.
// The first error from any sink aborts the sweep, but Finish is always
// delivered to every sink so earlier ones still flush.
func TeeSink(sinks ...ResultSink) ResultSink { return teeSink(sinks) }

type teeSink []ResultSink

func (t teeSink) Start(exp Experiment, opt Options) error {
	for i, s := range t {
		if err := s.Start(exp, opt); err != nil {
			err = fmt.Errorf("experiments: tee sink %d: %w", i, err)
			// The runner only finishes a sink whose Start succeeded, so
			// the earlier legs must be finished here — a JSONL leg that
			// already buffered its header would otherwise leave a
			// zero-byte file, indistinguishable from a dead writer.
			for _, started := range t[:i] {
				_ = started.Finish(err)
			}
			return err
		}
	}
	return nil
}

func (t teeSink) Cell(c CellResult) error {
	for i, s := range t {
		if err := s.Cell(c); err != nil {
			return fmt.Errorf("experiments: tee sink %d: %w", i, err)
		}
	}
	return nil
}

func (t teeSink) Finish(runErr error) error {
	var errs []error
	for i, s := range t {
		if err := s.Finish(runErr); err != nil {
			errs = append(errs, fmt.Errorf("experiments: tee sink %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// OpenResume opens the JSONL stream at path for a sweep that may pick up
// an earlier attempt of exp under opt. It returns the validated prefix
// (nil when there is nothing to resume) and the file to write, positioned
// for appending:
//
//   - A missing file, or one whose header never reached the disk, is
//     created fresh: (nil, f, nil).
//   - A partial stream is truncated at the prefix's Offset — cutting a
//     torn trailing line and any interruption footer — and f is
//     positioned there.
//   - A complete stream returns its prefix and a nil file: its bytes are
//     final, and the file is never reopened.
//   - A stream written for a different sweep is an error, never
//     overwritten.
//
// Hand the prefix to Runner.ResumeFrom and f to NewJSONLSinkResume.
func OpenResume(path string, exp Experiment, opt Options) (*SweepPrefix, *os.File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	prefix, err := ReadJSONLPrefix(data, exp, opt)
	if err != nil {
		return nil, nil, err
	}
	if prefix.Complete {
		return prefix, nil, nil
	}
	if prefix.Offset == 0 {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		return nil, f, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(prefix.Offset); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(prefix.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return prefix, f, nil
}
