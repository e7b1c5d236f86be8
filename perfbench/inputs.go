package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"

	"aod"
	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/gen"
)

// opts are the discovery options of every workload: the optimal validator
// at ε = 0.10, reporting OFDs as well as OCs.
var opts = aod.Options{Threshold: 0.10, Algorithm: aod.AlgorithmOptimal, IncludeOFDs: true}

// shape is one generated table: a synthetic dataset family, its size, and
// the seed the generator draws from.
type shape struct {
	kind  string // "ncvoter" or "flight"
	rows  int
	attrs int
	seed  int64
}

func (s shape) String() string { return fmt.Sprintf("%s-%dx%d", s.kind, s.rows, s.attrs) }

// csv renders the table as CSV: the only form in which inputs reach the
// program.
func (s shape) csv() ([]byte, error) {
	var t *dataset.Table
	switch s.kind {
	case "ncvoter":
		t = gen.NCVoter(gen.NCVoterConfig{Rows: s.rows, Attrs: s.attrs, Seed: s.seed})
	case "flight":
		t = gen.Flight(gen.FlightConfig{Rows: s.rows, Attrs: s.attrs, Seed: s.seed})
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", s.kind)
	}
	var b bytes.Buffer
	if err := dataset.WriteCSV(&b, t); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", s, err)
	}
	return b.Bytes(), nil
}

// subSeed derives the generator seed of the i-th input of a run.
func subSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// inputDigest accumulates every generated input byte (tables and traffic
// plan) so two runs can show they saw identical inputs.
type inputDigest struct{ h hash.Hash }

func newInputDigest() *inputDigest { return &inputDigest{h: sha256.New()} }

func (d *inputDigest) add(name string, b []byte) {
	fmt.Fprintf(d.h, "%s:%d:", name, len(b))
	d.h.Write(b)
}

func (d *inputDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// table is one parsed input with the reference digest of its report.
type table struct {
	shape shape
	csv   []byte
	ds    *aod.Dataset
	ref   string
}

// loadTables renders, parses and references each shape. The reference is
// the report digest of a serial discovery computed here, once per set-up.
func loadTables(shapes []shape, in *inputDigest) ([]*table, error) {
	var out []*table
	for _, s := range shapes {
		b, err := s.csv()
		if err != nil {
			return nil, err
		}
		in.add(s.String(), b)
		ds, err := aod.ReadCSV(bytes.NewReader(b), aod.CSVOptions{})
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", s, err)
		}
		rep, err := aod.Discover(ds, opts)
		if err != nil {
			return nil, fmt.Errorf("reference run on %s: %w", s, err)
		}
		out = append(out, &table{shape: s, csv: b, ds: ds.Freeze(), ref: reportDigest(rep)})
	}
	return out, nil
}

// reportDigest is a digest of a report's canonical content: every
// dependency with its context, sides, removals and error, plus the
// deterministic lattice counts. Timings are excluded.
func reportDigest(r *aod.Report) string {
	var lines []string
	for _, oc := range r.OCs {
		lines = append(lines, fmt.Sprintf("oc|%s|%s|%s|%t|%d|%.17g|%d", strings.Join(oc.Context, ","), oc.A, oc.B, oc.Descending, oc.Removals, oc.Error, oc.Level))
	}
	for _, ofd := range r.OFDs {
		lines = append(lines, fmt.Sprintf("ofd|%s|%s|%d|%.17g|%d", strings.Join(ofd.Context, ","), ofd.A, ofd.Removals, ofd.Error, ofd.Level))
	}
	sort.Strings(lines)
	st := r.Stats
	lines = append(lines, fmt.Sprintf("stats|%d|%d|%d|%d|%d", st.Rows, st.Attrs, st.NodesProcessed, st.OCCandidates, st.OFDCandidates))
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])[:16]
}

// referenceCheck discovers a small seeded table through the library and
// through core.ReferenceDiscover, the brute-force oracle, and reports
// whether the two dependency sets agree.
func referenceCheck(seed int64) error {
	s := shape{kind: "ncvoter", rows: 60, attrs: 6, seed: subSeed(seed, 999)}
	b, err := s.csv()
	if err != nil {
		return err
	}
	ds, err := aod.ReadCSV(bytes.NewReader(b), aod.CSVOptions{})
	if err != nil {
		return err
	}
	tbl, err := dataset.ReadCSV(bytes.NewReader(b), dataset.CSVOptions{})
	if err != nil {
		return err
	}
	rep, err := aod.Discover(ds, opts)
	if err != nil {
		return err
	}
	ref, err := core.ReferenceDiscover(tbl, core.Config{Threshold: opts.Threshold, Validator: core.ValidatorOptimal, IncludeOFDs: true})
	if err != nil {
		return err
	}
	names := tbl.ColumnNames()
	var got, want []string
	for _, oc := range rep.OCs {
		got = append(got, fmt.Sprintf("oc|%s|%s|%s|%t|%d", strings.Join(oc.Context, ","), oc.A, oc.B, oc.Descending, oc.Removals))
	}
	for _, ofd := range rep.OFDs {
		got = append(got, fmt.Sprintf("ofd|%s|%s|%d", strings.Join(ofd.Context, ","), ofd.A, ofd.Removals))
	}
	ctxNames := func(set interface{ ForEach(func(int)) }) string {
		var out []string
		set.ForEach(func(a int) { out = append(out, names[a]) })
		return strings.Join(out, ",")
	}
	for _, oc := range ref.OCs {
		want = append(want, fmt.Sprintf("oc|%s|%s|%s|%t|%d", ctxNames(oc.Context), names[oc.A], names[oc.B], oc.Descending, oc.Removals))
	}
	for _, ofd := range ref.OFDs {
		want = append(want, fmt.Sprintf("ofd|%s|%s|%d", ctxNames(ofd.Context), names[ofd.A], ofd.Removals))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("library and reference disagree on %s: %d vs %d dependencies", s, len(got), len(want))
	}
	return nil
}
