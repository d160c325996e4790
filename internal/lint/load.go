package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader here turns fixture directories into type-checked Units
// without golang.org/x/tools: `go list -export -json` resolves imported
// packages and produces compiler export data for them, and go/importer's
// public "gc" importer reads that export data back.
// This is the same division of labor go vet itself uses — the build
// system compiles, the analyzer only type-checks the unit's own source.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Export     string
}

// goList runs `go list -export -json -deps` over patterns in dir and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter type-checks against compiler export data files, keyed by
// package path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// LoadDir loads one package from the .go files directly inside dir,
// type-checking it as import path pkgPath. Imports resolve against the
// standard library (via one go list run from moduleDir) and, recursively,
// against sibling fixture directories under srcRoot — the layout of a
// linttest testdata/src tree.
func LoadDir(moduleDir, srcRoot, pkgPath string) (*Unit, error) {
	fset := token.NewFileSet()
	cache := make(map[string]*types.Package)
	files, pkg, info, err := loadFixture(fset, moduleDir, srcRoot, pkgPath, cache)
	if err != nil {
		return nil, err
	}
	return &Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

func loadFixture(fset *token.FileSet, moduleDir, srcRoot, pkgPath string, cache map[string]*types.Package) ([]*ast.File, *types.Package, *types.Info, error) {
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	imports := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no .go files in %s", dir)
	}

	// Split imports into fixture-local (a directory under srcRoot) and
	// external (resolved to export data by the go tool).
	var external []string
	for imp := range imports {
		if fi, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(imp))); err == nil && fi.IsDir() {
			if _, ok := cache[imp]; !ok {
				if _, _, _, err := loadFixture(fset, moduleDir, srcRoot, imp, cache); err != nil {
					return nil, nil, nil, err
				}
			}
			continue
		}
		external = append(external, imp)
	}
	exports := make(map[string]string)
	if len(external) > 0 {
		sort.Strings(external)
		pkgs, err := goList(moduleDir, external)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	gc := exportImporter(fset, exports)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := cache[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	info := NewTypesInfo()
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %v", pkgPath, err)
	}
	cache[pkgPath] = pkg
	return files, pkg, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
