// Command vdtnlint runs the repo's determinism & safety analyzers
// (internal/lint/...): detmaprange, detsource, detgo, ctxloop.
//
// It runs as a vet tool, driven by the go command:
//
//	go vet -vettool=$(pwd)/bin/vdtnlint ./...
//
// The go command probes the tool with -flags and -V=full, then invokes it
// once per package with a JSON *.cfg file describing the unit (sources,
// import map, export data) — the same contract
// golang.org/x/tools/go/analysis/unitchecker implements — so the build
// cache and per-package parallelism come for free. Run without a *.cfg
// argument, it prints its usage and exits 2.
//
// Exit status is nonzero iff diagnostics were reported (or loading failed).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"vdtn/internal/lint"
	"vdtn/internal/lint/ctxloop"
	"vdtn/internal/lint/detgo"
	"vdtn/internal/lint/detmaprange"
	"vdtn/internal/lint/detsource"
)

var analyzers = []*lint.Analyzer{
	detmaprange.Analyzer,
	detsource.Analyzer,
	detgo.Analyzer,
	ctxloop.Analyzer,
}

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-flags" || a == "--flags":
			// The go command asks which flags the tool accepts so it can
			// validate user-supplied vet flags. vdtnlint takes none.
			fmt.Println("[]")
			return
		case strings.HasPrefix(a, "-V=") || a == "-V":
			printVersion()
			return
		case a == "help" || a == "-h" || a == "--help":
			usage()
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(unitcheck(args[n-1]))
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v vdtnlint) [packages]\n\nAnalyzers (see docs/DETERMINISM.md):\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// printVersion answers the go command's -V=full probe. The build cache
// needs a stable content identifier for the tool; hashing the executable
// gives one without requiring the binary to be stamped at link time.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:20]
			}
			f.Close()
		}
	}
	fmt.Printf("vdtnlint version devel buildID=%s\n", id)
}

// vetConfig is the JSON unit description the go command writes for vet
// tools (cmd/go/internal/work's "vet.cfg").
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdtnlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "vdtnlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requests a facts file for every unit, dependencies
	// included, and caches it. These analyzers exchange no facts, so the
	// output is always empty — but it must exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "vdtnlint: %v\n", err)
			return 1
		}
	}
	// Dependency units exist only to produce facts: nothing to analyze.
	if cfg.VetxOnly {
		return 0
	}
	unit, err := loadUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "vdtnlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := lint.Run(unit, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdtnlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", unit.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// loadUnit parses and type-checks the unit described by cfg, resolving
// imports through the export data files the go command already built.
func loadUnit(cfg *vetConfig) (*lint.Unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files")
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	info := lint.NewTypesInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}
