package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestReadJSONLPrefixWorkerKnobsNeverPoisonResume pins the service-level
// resume rule inherited from the cache-key rule: Workers is a throughput
// knob, not sweep identity — a stream written under one setting must
// read, and resume, under any other. The JSONL header deliberately
// excludes it, so this is the regression gate on that exclusion.
func TestReadJSONLPrefixWorkerKnobsNeverPoisonResume(t *testing.T) {
	exp := tinyExperiment()
	wrote := Options{Seeds: []uint64{1, 2}, Workers: 1}
	data := fullJSONLStream(t, exp, wrote)
	cells := len(exp.Scenarios) * len(exp.Xs) * len(wrote.Seeds)

	reads := []Options{
		{Seeds: wrote.Seeds},
		{Seeds: wrote.Seeds, Workers: 7},
		{Seeds: wrote.Seeds, Workers: 2},
	}
	for i, opt := range reads {
		p, err := ReadJSONLPrefix(data, exp, opt)
		if err != nil {
			t.Fatalf("read %d (workers=%d): %v", i, opt.Workers, err)
		}
		if len(p.Cells) != cells || !p.Footer || !p.Complete {
			t.Fatalf("read %d: got %d cells footer=%v complete=%v, want %d/true/true",
				i, len(p.Cells), p.Footer, p.Complete, cells)
		}
	}

	// Seeds and scale ARE sweep identity: the same reads must refuse.
	for i, opt := range []Options{
		{Seeds: []uint64{1, 2, 3}},
		{Seeds: wrote.Seeds, Scale: 0.5},
	} {
		if _, err := ReadJSONLPrefix(data, exp, opt); err == nil {
			t.Fatalf("identity-changing read %d unexpectedly accepted", i)
		}
	}

	// And a real resume across a worker-count change stays
	// byte-identical: truncate mid-sweep, re-read under a different
	// count, finish under it too.
	ends := lineEnds(data)
	cut := ends[1+cells/2] // header + half the cells
	part := append([]byte(nil), data[:cut]...)
	resumeOpt := Options{Seeds: wrote.Seeds, Workers: 4}
	p, err := ReadJSONLPrefix(part, exp, resumeOpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(part)
	r := Runner{Options: resumeOpt, Sink: NewJSONLSinkResume(&buf, p), ResumeFrom: p}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("resumed stream under a different worker count is not byte-identical to the original")
	}
}
