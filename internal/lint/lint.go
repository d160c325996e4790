// Package lint is the analysis framework behind vdtnlint, the repo's
// determinism & safety analyzer suite.
//
// Every guarantee the reproduction rests on — the pinned contact
// fingerprint, byte-identical replay across the protocol×policy matrix,
// byte-identical -resume streams — is a determinism property. The golden
// tests enforce those properties dynamically for a handful of sampled
// seeds; the analyzers in internal/lint/... prove the underlying source
// invariants statically for every build. docs/DETERMINISM.md is the
// contract the diagnostics refer to.
//
// The framework is intentionally shaped like golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: it depends only on
// the standard library, so the module stays dependency-free. Drivers are
// cmd/vdtnlint (the `go vet -vettool` unitchecker protocol) and the
// linttest fixture harness.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and as the CLI flag that
	// selects it.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Directive is the suppression directive the analyzer honors:
	// a comment of the form
	//
	//	//vdtnlint:<directive> <justification>
	//
	// on the flagged line (or the line directly above it) suppresses the
	// diagnostic. The justification text is mandatory — a bare directive is
	// itself rejected — and a directive that suppresses nothing is flagged
	// as unused, so annotations cannot silently outlive the code they
	// excused. See docs/DETERMINISM.md for the grammar.
	Directive string

	// AppliesTo reports whether the analyzer runs on the package with the
	// given import path. A nil AppliesTo means every package.
	AppliesTo func(pkgPath string) bool

	// Run performs the analysis on one package unit, reporting findings
	// through pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
//
// Files holds only non-test sources: determinism of _test.go files is
// already enforced dynamically by the golden suites, and tests routinely
// use wall clocks and unordered iteration on purpose.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diags = append(p.diags, d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Unit is one loaded, type-checked package ready for analysis.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File // all parsed files, test files included
	Pkg       *types.Package
	TypesInfo *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers consult
// allocated. Loaders share it so no Pass ever sees a nil map.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Run executes the analyzers over the unit and returns the surviving
// diagnostics in source order: each analyzer's raw findings are filtered
// through its suppression directives, rejected and unused suppressions
// are turned into diagnostics of their own, and the results are merged.
func Run(unit *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(unit.Pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     nonTestFiles(unit.Fset, unit.Files),
			Pkg:       unit.Pkg,
			TypesInfo: unit.TypesInfo,
		}
		if len(pass.Files) == 0 {
			continue
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		out = append(out, applySuppressions(pass)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// suppression is one //vdtnlint:<directive> comment.
type suppression struct {
	pos       token.Pos
	line      int
	file      string
	justified bool
	used      bool
}

var directiveRe = regexp.MustCompile(`^//vdtnlint:([a-z0-9-]+)(.*)$`)

// parseSuppressions collects the directive comments matching the
// analyzer's directive, keyed by file:line.
func parseSuppressions(fset *token.FileSet, files []*ast.File, directive string) map[string]*suppression {
	sups := make(map[string]*suppression)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] != directive {
					continue
				}
				just := m[2]
				// Fixture files stack a `// want "..."` expectation after the
				// directive inside the same comment; it is not justification.
				if i := strings.Index(just, "// want"); i >= 0 {
					just = just[:i]
				}
				pos := fset.Position(c.Slash)
				sups[lineKey(pos.Filename, pos.Line)] = &suppression{
					pos:       c.Slash,
					line:      pos.Line,
					file:      pos.Filename,
					justified: strings.TrimSpace(just) != "",
				}
			}
		}
	}
	return sups
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// applySuppressions filters the pass's raw diagnostics through the
// analyzer's directive comments. A justified directive on the diagnostic's
// line (or the line above) silences it; an unjustified one lets the
// diagnostic through with the rejection noted; a directive that silenced
// nothing becomes a finding itself.
func applySuppressions(pass *Pass) []Diagnostic {
	a := pass.Analyzer
	if a.Directive == "" {
		return pass.diags
	}
	sups := parseSuppressions(pass.Fset, pass.Files, a.Directive)
	var out []Diagnostic
	for _, d := range pass.diags {
		pos := pass.Fset.Position(d.Pos)
		var s *suppression
		for _, line := range []int{pos.Line, pos.Line - 1} {
			if c, ok := sups[lineKey(pos.Filename, line)]; ok {
				s = c
				break
			}
		}
		if s != nil {
			s.used = true
			if s.justified {
				continue
			}
			d.Message += fmt.Sprintf(" (suppression rejected: //vdtnlint:%s needs a justification; see docs/DETERMINISM.md)", a.Directive)
		}
		out = append(out, d)
	}
	for _, s := range sups {
		if s.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      s.pos,
			Analyzer: a.Name,
			Message:  fmt.Sprintf("unused //vdtnlint:%s directive: it suppresses nothing on this line or the next", a.Directive),
		})
	}
	return out
}
