// Package analysis is the engine-invariant static-analysis layer: a
// small, dependency-free analogue of golang.org/x/tools/go/analysis
// that encodes the resource and concurrency disciplines accumulated by
// the storage and operator layers (page pins, pooled batches,
// the latch hierarchy, ErrDBFailed poisoning, containPanic at morsel
// sites) as checkable rules over the Go source. cmd/admvet is the
// multichecker front end; ci.sh runs it alongside admlint.
//
// The loader shells out to `go list -deps -json` (available offline —
// it only reads the module on disk) to obtain the package graph in
// dependency order, then parses and type-checks every package from
// source with go/types. Standard-library and dependency-only packages
// are checked with IgnoreFuncBodies, so a full-repo load stays under a
// second.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// mapImporter resolves imports from packages already type-checked this
// load, in the dependency order `go list -deps` guarantees.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("analysis: import %q not loaded", path)
}

// Load resolves patterns (e.g. "./...") relative to dir and returns
// the matched packages, type-checked from source. Dependencies are
// loaded for type information but not returned. Parse or type errors
// in a matched package fail the load; errors confined to dependencies
// are tolerated (their exported API is usually still usable).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	raw, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return typeCheck(raw)
}

// LoadDir parses every non-test .go file in dir as a single package
// (the fixture-directory mode of cmd/admvet and the analyzer tests).
// Imports are resolved through the regular loader, so fixtures may
// import the standard library.
func LoadDir(dir string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	var parsed []*ast.File
	imports := map[string]bool{}
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
		for _, imp := range af.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}

	// Type-check the fixture's imports (stdlib) first, then the
	// fixture itself against them.
	loaded := mapImporter{"unsafe": types.Unsafe}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		deps, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		if err := checkInto(loaded, fset, deps, nil); err != nil {
			return nil, err
		}
	}
	pkgName := parsed[0].Name.Name
	pkg, info, err := checkPkg(loaded, fset, pkgName, parsed, false)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	return []*Package{{Path: pkgName, Dir: dir, Fset: fset, Files: parsed, Types: pkg, Info: info}}, nil
}

// goList runs `go list -deps -json` for patterns in dir.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for dec.More() {
		p := &listPkg{}
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// typeCheck checks every listed package in order and returns the
// target (non-dependency) packages with full syntax and type info.
func typeCheck(raw []*listPkg) ([]*Package, error) {
	fset := token.NewFileSet()
	loaded := mapImporter{"unsafe": types.Unsafe}
	var targets []*Package
	err := checkInto(loaded, fset, raw, func(p *listPkg, files []*ast.File, pkg *types.Package, info *types.Info) {
		targets = append(targets, &Package{
			Path: p.ImportPath, Dir: p.Dir, Fset: fset, Files: files, Types: pkg, Info: info,
		})
	})
	if err != nil {
		return nil, err
	}
	return targets, nil
}

// checkInto type-checks each listed package into loaded. onTarget, if
// non-nil, is invoked for packages that were named by the load
// patterns (not Standard, not DepOnly); those are checked with full
// function bodies and strict errors.
func checkInto(loaded mapImporter, fset *token.FileSet, raw []*listPkg,
	onTarget func(*listPkg, []*ast.File, *types.Package, *types.Info)) error {
	for _, p := range raw {
		if p.ImportPath == "unsafe" {
			continue
		}
		target := !p.Standard && !p.DepOnly && onTarget != nil
		var files []*ast.File
		for _, f := range p.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(p.Dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				if target {
					return fmt.Errorf("analysis: %w", err)
				}
				continue
			}
			files = append(files, af)
		}
		pkg, info, err := checkPkg(loaded, fset, p.ImportPath, files, !target)
		if err != nil && target {
			return fmt.Errorf("analysis: %s: %w", p.ImportPath, err)
		}
		if pkg != nil {
			loaded[p.ImportPath] = pkg
		}
		if target && err == nil {
			onTarget(p, files, pkg, info)
		}
	}
	return nil
}

// checkPkg type-checks one package's files against loaded imports.
func checkPkg(loaded mapImporter, fset *token.FileSet, path string, files []*ast.File, bodiesOptional bool) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer:         loaded,
		IgnoreFuncBodies: bodiesOptional,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return pkg, info, firstErr
	}
	return pkg, info, err
}
