// Package guarded enforces a lightweight lock-annotation convention on the
// serving stack. A struct-field mutex declares what it protects in a
// comment —
//
//	mu sync.Mutex // guards: full, prefix, alloc
//
// — and the analyzer then checks, function by function, that every access
// to a guarded field sits inside a Lock/Unlock span of that mutex on the
// same base expression (s.metrics.methodRequests needs
// s.metrics.methodMu.Lock, not some other instance's). Helpers that are
// documented to run with the lock already held opt out per function:
//
//	// unlink removes e from the LRU list.
//	// holds: mu
//	func (c *Cache) unlink(e *entry) { ... }
//
// which both exempts the body and turns every call site of the helper into
// a checked obligation — calling a holds: method without the named mutex
// held is reported.
//
// In the serving packages (ServingPkgs) the convention is mandatory: a
// struct-field sync.Mutex or sync.RWMutex without a guards: line is itself
// a finding, so new mutexes cannot land undocumented. A mutex that
// serializes an external resource rather than fields declares
// "guards: none".
//
// The checker is intraprocedural and deliberately modest: state is tracked
// linearly through each function, branches and loop bodies are analyzed
// with a copy of the lock state (a conditional Lock never leaks past its
// branch), a deferred Unlock keeps the mutex held to the end of the
// function, and function literals — which may escape to other goroutines —
// start with no locks held. Accesses through bases the checker cannot name
// (calls, index expressions) and values freshly built from a composite
// literal in the same function (constructors — nothing else can see the
// value yet) are exempt. Test files are skipped entirely.
package guarded

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"prescount/tools/lint/analysis"
)

// Analyzer is the guarded check.
var Analyzer = &analysis.Analyzer{
	Name: "guarded",
	Doc:  "check guards:/holds: mutex annotations: guarded fields accessed only inside Lock/Unlock spans",
	Run:  run,
}

// ServingPkgs lists the import paths where every struct-field mutex must
// carry a guards: annotation — the concurrent serving stack, where an
// undocumented mutex is a data race waiting for a refactor.
var ServingPkgs = map[string]bool{
	"prescount/internal/server":       true,
	"prescount/internal/router":       true,
	"prescount/internal/diskcache":    true,
	"prescount/internal/compilecache": true,
}

// structInfo is the annotation record of one named struct type.
type structInfo struct {
	name    string
	mutexes map[string][]string // mutex field -> fields it guards
	guardOf map[string]string   // guarded field -> its mutex field
	holds   map[string][]string // method name -> mutexes the caller must hold
}

func run(pass *analysis.Pass) error {
	infos := collect(pass)
	if len(infos) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			sc := &scanner{pass: pass, infos: infos, held: map[string]bool{}, fresh: map[string]bool{}}
			// A holds: method starts with its receiver's mutexes held.
			if rn, si := recvInfo(pass, infos, fd); si != nil && rn != "" {
				for _, mu := range si.holds[fd.Name.Name] {
					sc.held[rn+"."+mu] = true
				}
			}
			sc.stmts(fd.Body.List)
			return false // FuncLits are walked by the scanner itself
		})
	}
	return nil
}

func isTestFile(pass *analysis.Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// collect gathers guards: and holds: annotations from the package and
// reports the annotation-level findings (missing or ill-formed lines).
func collect(pass *analysis.Pass) map[string]*structInfo {
	infos := map[string]*structInfo{}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			collectStruct(pass, infos, ts.Name.Name, st)
			return true
		})
	}
	// holds: lines on methods, validated against the collected mutexes.
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			mus, ok := directive(fd.Doc, "holds:")
			if !ok {
				continue
			}
			_, si := recvInfo(pass, infos, fd)
			valid := len(mus) > 0
			for _, mu := range mus {
				if !hasMutex(si, mu) {
					pass.Reportf(fd.Name.Pos(),
						"holds: annotation on %s names %q, which is not an annotated mutex field of the receiver",
						fd.Name.Name, mu)
					valid = false
				}
			}
			if valid {
				si.holds[fd.Name.Name] = mus
			}
		}
	}
	return infos
}

func hasMutex(si *structInfo, name string) bool {
	if si == nil {
		return false
	}
	_, ok := si.mutexes[name]
	return ok
}

// collectStruct records the guards: annotations of one struct declaration.
func collectStruct(pass *analysis.Pass, infos map[string]*structInfo, name string, st *ast.StructType) {
	fieldNames := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			fieldNames[id.Name] = true
		}
	}
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 || !isMutexType(pass.TypesInfo.TypeOf(f.Type)) {
			continue
		}
		muName := f.Names[0].Name
		guarded, ok := directive(f.Doc, "guards:")
		if !ok {
			if g2, ok2 := directive(f.Comment, "guards:"); ok2 {
				guarded, ok = g2, true
			}
		}
		if !ok {
			if ServingPkgs[pass.Pkg.Path()] {
				pass.Reportf(f.Names[0].Pos(),
					"mutex field %s.%s in serving package %s has no guards: annotation; list the fields it guards, or declare 'guards: none'",
					name, muName, pass.Pkg.Path())
			}
			continue
		}
		si := infos[name]
		if si == nil {
			si = &structInfo{name: name,
				mutexes: map[string][]string{},
				guardOf: map[string]string{},
				holds:   map[string][]string{}}
			infos[name] = si
		}
		var valid []string
		for _, g := range guarded {
			switch {
			case g == muName:
				pass.Reportf(f.Names[0].Pos(),
					"guards: annotation on %s.%s names the mutex itself", name, muName)
			case !fieldNames[g]:
				pass.Reportf(f.Names[0].Pos(),
					"guards: annotation on %s.%s names %q, which is not a field of %s",
					name, muName, g, name)
			case si.guardOf[g] != "":
				pass.Reportf(f.Names[0].Pos(),
					"field %s.%s is already guarded by %s; a field has one guarding mutex",
					name, g, si.guardOf[g])
			default:
				si.guardOf[g] = muName
				valid = append(valid, g)
			}
		}
		si.mutexes[muName] = valid
		if valid == nil {
			si.mutexes[muName] = []string{} // guards: none — known, guards nothing
		}
	}
}

// directive extracts a "key: a, b, c" line from a comment group. The line
// must start with the key; "none" (or an empty list) yields an empty,
// present list.
func directive(cg *ast.CommentGroup, key string) ([]string, bool) {
	if cg == nil {
		return nil, false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		text = strings.TrimSpace(text)
		rest, ok := strings.CutPrefix(text, key)
		if !ok {
			continue
		}
		rest = strings.TrimSuffix(strings.TrimSpace(rest), ".")
		if rest == "" || rest == "none" {
			return nil, true
		}
		var out []string
		for _, p := range strings.Split(rest, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out, true
	}
	return nil, false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// recvInfo resolves a method's receiver name and its struct's annotations.
func recvInfo(pass *analysis.Pass, infos map[string]*structInfo, fd *ast.FuncDecl) (string, *structInfo) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", nil
	}
	named := namedOf(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
	if named == nil {
		return "", nil
	}
	si := infos[named.Obj().Name()]
	if si == nil {
		return "", nil
	}
	if len(fd.Recv.List[0].Names) == 0 {
		return "", si
	}
	return fd.Recv.List[0].Names[0].Name, si
}

// namedOf unwraps pointers down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// scanner tracks lock state through one function body.
type scanner struct {
	pass  *analysis.Pass
	infos map[string]*structInfo
	held  map[string]bool // "base.mu" spans currently open
	fresh map[string]bool // locals built from a composite literal here
}

func (sc *scanner) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.stmt(s)
	}
}

// branch analyzes stmts with a copy of the lock state: a Lock or Unlock
// on a conditional path proves nothing about the code after the branch.
func (sc *scanner) branch(list []ast.Stmt) {
	saved := sc.held
	sc.held = cloneSet(saved)
	sc.stmts(list)
	sc.held = saved
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (sc *scanner) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		sc.expr(st.X)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			sc.expr(r)
		}
		for _, l := range st.Lhs {
			sc.expr(l)
		}
		sc.trackFresh(st)
	case *ast.IncDecStmt:
		sc.expr(st.X)
	case *ast.SendStmt:
		sc.expr(st.Chan)
		sc.expr(st.Value)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.expr(r)
		}
	case *ast.DeferStmt:
		sc.deferStmt(st)
	case *ast.GoStmt:
		// Arguments are evaluated now, in this goroutine …
		for _, a := range st.Call.Args {
			sc.expr(a)
		}
		// … but the callee runs concurrently, holding nothing.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			sc.freshScanner().stmts(fl.Body.List)
		} else {
			sc.expr(st.Call.Fun)
		}
	case *ast.BlockStmt:
		sc.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		sc.expr(st.Cond)
		sc.branch(st.Body.List)
		switch el := st.Else.(type) {
		case *ast.BlockStmt:
			sc.branch(el.List)
		case *ast.IfStmt:
			sc.branch([]ast.Stmt{el})
		}
	case *ast.ForStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		if st.Cond != nil {
			sc.expr(st.Cond)
		}
		var body []ast.Stmt
		body = append(body, st.Body.List...)
		if st.Post != nil {
			body = append(body, st.Post)
		}
		sc.branch(body)
	case *ast.RangeStmt:
		sc.expr(st.X)
		sc.branch(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		sc.expr(st.Tag)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					sc.expr(e)
				}
				sc.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init)
		}
		sc.stmt(st.Assign)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				sc.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				var body []ast.Stmt
				if cc.Comm != nil {
					body = append(body, cc.Comm)
				}
				body = append(body, cc.Body...)
				sc.branch(body)
			}
		}
	case *ast.LabeledStmt:
		sc.stmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.expr(v)
					}
				}
			}
		}
	}
}

// deferStmt handles the canonical `defer x.mu.Unlock()`: the mutex stays
// held to the end of the function, so the unlock must not clear the span.
// Deferred function literals run at exit, when earlier locks may already
// be released — they are analyzed holding nothing.
func (sc *scanner) deferStmt(st *ast.DeferStmt) {
	if _, _, op, ok := sc.lockCall(st.Call); ok && (op == "Unlock" || op == "RUnlock") {
		return
	}
	for _, a := range st.Call.Args {
		sc.expr(a)
	}
	if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
		sc.freshScanner().stmts(fl.Body.List)
	} else {
		sc.expr(st.Call.Fun)
	}
}

func (sc *scanner) freshScanner() *scanner {
	return &scanner{pass: sc.pass, infos: sc.infos,
		held: map[string]bool{}, fresh: map[string]bool{}}
}

func (sc *scanner) expr(e ast.Expr) {
	switch ex := e.(type) {
	case nil:
	case *ast.CallExpr:
		if key, _, op, ok := sc.lockCall(ex); ok {
			switch op {
			case "Lock", "RLock":
				sc.held[key] = true
			case "Unlock", "RUnlock":
				delete(sc.held, key)
			}
			return
		}
		sc.checkHoldsCall(ex)
		sc.expr(ex.Fun)
		for _, a := range ex.Args {
			sc.expr(a)
		}
	case *ast.SelectorExpr:
		sc.checkAccess(ex)
		sc.expr(ex.X)
	case *ast.FuncLit:
		// May escape to another goroutine; assume no locks travel with it.
		sc.freshScanner().stmts(ex.Body.List)
	case *ast.ParenExpr:
		sc.expr(ex.X)
	case *ast.StarExpr:
		sc.expr(ex.X)
	case *ast.UnaryExpr:
		sc.expr(ex.X)
	case *ast.BinaryExpr:
		sc.expr(ex.X)
		sc.expr(ex.Y)
	case *ast.IndexExpr:
		sc.expr(ex.X)
		sc.expr(ex.Index)
	case *ast.IndexListExpr:
		sc.expr(ex.X)
		for _, i := range ex.Indices {
			sc.expr(i)
		}
	case *ast.SliceExpr:
		sc.expr(ex.X)
		sc.expr(ex.Low)
		sc.expr(ex.High)
		sc.expr(ex.Max)
	case *ast.TypeAssertExpr:
		sc.expr(ex.X)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// Struct-literal keys are field names, not accesses; map
				// keys that are more than an identifier still get checked.
				if _, isIdent := kv.Key.(*ast.Ident); !isIdent {
					sc.expr(kv.Key)
				}
				sc.expr(kv.Value)
				continue
			}
			sc.expr(el)
		}
	}
}

// lockCall matches x.<mu>.Lock/Unlock/RLock/RUnlock() for an annotated
// mutex field and returns the span key ("x.mu"), the struct info and the
// operation.
func (sc *scanner) lockCall(ce *ast.CallExpr) (key string, si *structInfo, op string, ok bool) {
	sel, isSel := ce.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, "", false
	}
	op = sel.Sel.Name
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return "", nil, "", false
	}
	muSel, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, "", false
	}
	si, fieldName, base := sc.fieldSel(muSel)
	if si == nil || !hasMutex(si, fieldName) || base == "" {
		return "", nil, "", false
	}
	return base + "." + fieldName, si, op, true
}

// checkAccess reports a guarded-field access outside its mutex's span.
func (sc *scanner) checkAccess(sel *ast.SelectorExpr) {
	si, name, base := sc.fieldSel(sel)
	if si == nil {
		return
	}
	mu := si.guardOf[name]
	if mu == "" || base == "" {
		return
	}
	if sc.fresh[rootOf(base)] || sc.held[base+"."+mu] {
		return
	}
	sc.pass.Reportf(sel.Sel.Pos(),
		"%s.%s accessed without %s.%s held (guards: annotation on %s.%s)",
		base, name, base, mu, si.name, mu)
}

// checkHoldsCall reports a call to a holds:-annotated method made without
// the named mutexes held on the same receiver expression.
func (sc *scanner) checkHoldsCall(ce *ast.CallExpr) {
	sel, ok := ce.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := sc.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Pkg() != sc.pass.Pkg {
		return
	}
	si := sc.infos[named.Obj().Name()]
	if si == nil {
		return
	}
	mus := si.holds[sel.Sel.Name]
	if len(mus) == 0 {
		return
	}
	base := exprKey(sel.X)
	if base == "" || sc.fresh[rootOf(base)] {
		return
	}
	for _, mu := range mus {
		if !sc.held[base+"."+mu] {
			sc.pass.Reportf(sel.Sel.Pos(),
				"%s.%s called without %s.%s held (holds: annotation on %s.%s)",
				base, sel.Sel.Name, base, mu, si.name, sel.Sel.Name)
		}
	}
}

// fieldSel resolves sel as a direct field selection on an annotated struct
// of this package, returning its info, the field name and the base key.
func (sc *scanner) fieldSel(sel *ast.SelectorExpr) (*structInfo, string, string) {
	selection := sc.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal || len(selection.Index()) != 1 {
		return nil, "", ""
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Pkg() != sc.pass.Pkg {
		return nil, "", ""
	}
	si := sc.infos[named.Obj().Name()]
	if si == nil {
		return nil, "", ""
	}
	return si, sel.Sel.Name, exprKey(sel.X)
}

// trackFresh records locals bound to a composite literal of an annotated
// struct: until the value is published, no lock discipline applies.
func (sc *scanner) trackFresh(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, l := range st.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		r := st.Rhs[i]
		if u, isAddr := r.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			r = u.X
		}
		cl, isLit := r.(*ast.CompositeLit)
		if !isLit {
			continue
		}
		named := namedOf(sc.pass.TypesInfo.TypeOf(cl))
		if named != nil && named.Obj().Pkg() == sc.pass.Pkg && sc.infos[named.Obj().Name()] != nil {
			sc.fresh[id.Name] = true
		}
	}
}

// exprKey renders a base expression as a stable path ("s.metrics") when it
// is a chain of identifiers and field selections; anything else — calls,
// index expressions — yields "" and the access is not checked.
func exprKey(e ast.Expr) string {
	switch ex := e.(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.SelectorExpr:
		x := exprKey(ex.X)
		if x == "" {
			return ""
		}
		return x + "." + ex.Sel.Name
	case *ast.ParenExpr:
		return exprKey(ex.X)
	case *ast.StarExpr:
		return exprKey(ex.X)
	}
	return ""
}

// rootOf returns the first segment of a base path.
func rootOf(base string) string {
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}
