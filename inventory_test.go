package securearchive_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// exportedAllowlist names the exported funcs, methods, types and whole
// packages under internal/ that may stay without a production reader, each
// with exactly one reason:
//
//   - oracle: a reference that tests compare an implementation against;
//   - paper:  printed by papereval or attacksim, or read by one of this
//     package's experiment benchmarks;
//   - seam:   read only by the tests of another package;
//   - bench:  read only by the bench/ module (checked);
//   - item N: the ROADMAP item that claims it.
//
// Keys are "<pkg>.<Name>" or "<pkg>.<Type>.<Method>" with <pkg> relative to
// internal/, or a bare "<pkg>" for a package no production file imports.
// An entry that no longer needs to be here fails the test, so the list can
// only shrink unless the same change adds a reader.
var exportedAllowlist = map[string]string{
	"gf256.MulSliceAssign": "oracle",
	"group.Group.Contains": "oracle",
	"rs.Code.Verify":       "oracle",

	"commit.CommitHash":      "paper",
	"commit.VerifyHash":      "paper",
	"packed.StorageOverhead": "paper",
	"workload":               "paper",

	"cluster.Open":                        "seam",
	"cluster.Cluster.Store":               "seam",
	"core.WithChunkSize":                  "seam",
	"obs/trace.Mem":                       "seam",
	"obs/trace.Mem.Traces":                "seam",
	"obs/trace.SpanRecord.Attr":           "seam",
	"obs/trace.Trace.Children":            "seam",
	"obs/trace.Trace.Depth":               "seam",
	"obs/trace.Trace.EventCount":          "seam",
	"store/diskstore.Store.SetCrashPoint": "seam",

	"api/client":                      "bench",
	"cluster.Cluster.Gets":            "bench",
	"cluster.Cluster.Puts":            "bench",
	"cluster.Cluster.StoredBytes":     "bench",
	"cluster.Cluster.TotalBytesMoved": "bench",
	"cluster.Cluster.UseRegistry":     "bench",
	"core.Vault.StreamPeakBuffered":   "bench",
	"core.WithGroup":                  "bench",
	"core.WithParallelism":            "bench",
	"core.WithRegistry":               "bench",
	"core.WithTracer":                 "bench",
	"group.Test":                      "bench",
	"store/diskstore.Store.Recovery":  "bench",
	"tstamp.Chain.VerifyData":         "bench",

	"core.Vault.ExportEvidence":        "item 6",
	"tstamp.Unmarshal":                 "item 6",
	"core.MinRenewalsPerEpoch":         "item 7",
	"core.PlanRenewal":                 "item 7",
	"core.Vault.ScrubAll":              "item 7",
	"systems.HasDPSS.Resize":           "item 8",
	"systems.PASIS.ModeOverhead":       "item 8",
	"systems.POTSHARDS.RetrieveRobust": "item 8",
	"systems.VSRArchive.Repair":        "item 8",
	"lrss.LeakAttackShamirPayload":     "item 13",
}

const modulePath = "securearchive"

var allowReason = regexp.MustCompile(`^(oracle|paper|seam|bench|item [0-9]+)$`)

// TestExportedInventory requires every exported top-level func, method and
// type under internal/ to be read by a non-test file outside bench/ (its own
// file counts; its own declaration does not), and every internal/ package
// to be imported by a non-test file of another package. A method also
// counts as read when its receiver implements an interface declaring it.
func TestExportedInventory(t *testing.T) {
	l := newInventoryLoader()
	prod := l.loadTree(t, ".", func(rel string) bool { return rel == "bench" })
	benchPkgs := l.loadTree(t, "bench", nil)

	decls := exportedDecls(prod)
	read, benchRead := readObjects(prod), readObjects(benchPkgs)
	imported, benchImported := importsOf(prod), importsOf(benchPkgs)
	ifaces := l.interfaces(prod)

	for key, reason := range exportedAllowlist {
		if !allowReason.MatchString(reason) {
			t.Errorf("allowlist %s: reason %q is not one of oracle|paper|seam|bench|item N", key, reason)
		}
	}

	dead := map[string]bool{}
	pkgs := map[string]bool{}
	for _, p := range prod {
		key, ok := internalKey(p.types.Path())
		if !ok {
			continue
		}
		pkgs[key] = true
		if !imported[p.types.Path()] {
			dead[key] = true
		}
	}
	for key, obj := range decls {
		if dead[pkgOf(key)] {
			continue
		}
		if read[obj] || implementsAny(obj, ifaces) {
			continue
		}
		dead[key] = true
	}

	var missing, stale []string
	for key := range dead {
		if _, ok := exportedAllowlist[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key, reason := range exportedAllowlist {
		obj, isName := decls[key]
		switch {
		case !isName && !pkgs[key]:
			stale = append(stale, key+": no such name")
		case !dead[key]:
			stale = append(stale, key+": has a production reader")
		case reason == "bench" && isName && !benchRead[obj]:
			stale = append(stale, key+": bench/ does not read it")
		case reason == "bench" && !isName && !benchImported[modulePath+"/internal/"+key]:
			stale = append(stale, key+": bench/ does not import it")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, key := range missing {
		t.Errorf("%s has no reader outside tests and bench/: delete it or allowlist it with a reason", key)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry %s", s)
	}
	t.Logf("%d exported names in %d internal packages, %d allowlisted", len(decls), len(pkgs), len(exportedAllowlist))
}

type loadedPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// inventoryLoader type-checks this module's packages from source and
// everything else from the toolchain's export data.
type inventoryLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg
}

func newInventoryLoader() *inventoryLoader {
	return &inventoryLoader{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*loadedPkg{}}
}

func (l *inventoryLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks one package's non-test files; in bench/, whose
// benchmark lives in a test file, test files count too.
func (l *inventoryLoader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash("." + strings.TrimPrefix(path, modulePath))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if path == modulePath+"/bench" {
		names = append(append([]string{}, names...), bp.TestGoFiles...)
	}
	p := &loadedPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// loadTree loads every package under root, skipping directories that skip
// reports true for (by slash path relative to the module root).
func (l *inventoryLoader) loadTree(t *testing.T, root string, skip func(rel string) bool) []*loadedPkg {
	t.Helper()
	var out []*loadedPkg
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel := filepath.ToSlash(dir)
		base := filepath.Base(dir)
		if rel != "." && (strings.HasPrefix(base, ".") || base == "testdata" || skip != nil && skip(rel)) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		path := modulePath
		if rel != "." {
			path += "/" + rel
		}
		p, err := l.load(path)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// interfaces returns the interfaces a method may be read through: error,
// Unwrap, the fmt and encoding ones the runtime and encoders call, and
// every named interface declared by this module or a package it imports.
func (l *inventoryLoader) interfaces(pkgs []*loadedPkg) []*types.Interface {
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))}, nil)
	unwrap.Complete()
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), unwrap}
	named := func(pkg *types.Package, name string) {
		if obj, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(obj) {
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	for path, names := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
	} {
		pkg, err := l.std.Import(path)
		if err != nil {
			continue
		}
		for _, n := range names {
			named(pkg, n)
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, pkg := range append([]*types.Package{p.types}, p.types.Imports()...) {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			for _, n := range pkg.Scope().Names() {
				named(pkg, n)
			}
		}
	}
	return out
}

// exportedDecls maps "<pkg>.<Name>" and "<pkg>.<Type>.<Method>" to the
// object of every exported top-level func, method and type under internal/.
func exportedDecls(pkgs []*loadedPkg) map[string]types.Object {
	out := map[string]types.Object{}
	for _, p := range pkgs {
		pkg, ok := internalKey(p.types.Path())
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					obj := p.info.Defs[d.Name].(*types.Func)
					key := pkg + "." + d.Name.Name
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						key = pkg + "." + receiverName(recv.Type()) + "." + d.Name.Name
					}
					out[key] = obj
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							out[pkg+"."+ts.Name.Name] = p.info.Defs[ts.Name]
						}
					}
				}
			}
		}
	}
	return out
}

// readObjects returns every object the packages' files use, with generic
// methods mapped to their origin. A declaration's references to itself (a
// recursive call, a self-referential type) and a method's receiver type
// are not reads.
func readObjects(pkgs []*loadedPkg) map[types.Object]bool {
	read := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				self := map[types.Object]bool{}
				var skip ast.Node
				switch d := d.(type) {
				case *ast.FuncDecl:
					self[p.info.Defs[d.Name]] = true
					if d.Recv != nil {
						skip = d.Recv
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							self[p.info.Defs[ts.Name]] = true
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if skip != nil && n == skip {
						return false
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := p.info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if obj != nil && !self[obj] {
						read[obj] = true
					}
					return true
				})
			}
		}
	}
	return read
}

// implementsAny reports whether obj is a method whose receiver satisfies
// an interface that declares a method of the same name.
func implementsAny(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := deref(recv.Type()).(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// importsOf returns the paths the packages import from outside
// themselves.
func importsOf(pkgs []*loadedPkg) map[string]bool {
	out := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.types.Imports() {
			out[imp.Path()] = true
		}
	}
	return out
}

func internalKey(path string) (string, bool) {
	return strings.CutPrefix(path, modulePath+"/internal/")
}

// pkgOf returns the package part of an inventory key.
func pkgOf(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

func receiverName(t types.Type) string {
	return deref(t).(*types.Named).Obj().Name()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isGeneric(obj *types.TypeName) bool {
	n, ok := obj.Type().(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
