// Package lockscope polices the engine's short critical sections. A
// storeShard mutex (and the inflight table's and the scheduler
// schedQueue's) guards a few map and slice operations and
// nothing else; anything that can block or re-enter the store while
// such a lock is held turns a nanosecond critical section into a stall
// or a self-deadlock. For the scheduler the rule
// additionally forces time to be sampled outside the lock: the
// engine's clock is a function value, and calling it under schedQueue.mu
// would run arbitrary test clocks inside the dispatch hot path. That
// mutex also delimits admission and the idle workers' park: the park is
// a sync.Cond.Wait on the policed mutex itself, which releases it while
// waiting and so is no finding (the blocking rule skips it; the fixture
// pins that), whereas parking on a channel there would be.
// For the inflight table specifically, the rule forces the wake
// protocol: publish must detach the waiter list and the notices
// broadcast channel under the lock and perform the channel sends and
// the close after unlock — a send under the lock is exactly the
// deadlock-shaped bug the flagged fixture pins — and, since the table
// also holds the running handlers' cancel functions, cancel must look
// one up under the lock and invoke it after. Between a
// `<shard>.mu.Lock` (or RLock) and its release the analyzer forbids:
//
//   - anything lintkit.Blocking, the suite's one blocking classifier,
//     calls blocking: channel sends and receives, selects with no
//     default, ranging over a channel, time.Sleep and
//     sync.WaitGroup.Wait — all but sync.Cond.Wait, which releases
//     the mutex it waits on (the scheduler's park, the WAL's wait for
//     its commit slot both wait on the policed mutex itself);
//   - closing a channel — a close never blocks, but every reader it
//     wakes goes straight for the lock the closer still holds;
//   - calls through function values — handler or callback invocation
//     runs arbitrary user code under the lock;
//   - calls to methods of the Store interface — a pluggable backend
//     may block, and the in-memory ones re-acquire shard locks;
//   - calls to same-package functions that themselves acquire a shard
//     lock (re-entrant acquisition, an instant deadlock on the same
//     shard with sync.Mutex);
//   - acquiring a second shard lock while one is held, and acquiring
//     the same lock twice;
//   - acquiring a lock inside a loop body and still holding it when
//     the body ends — every iteration would take one more lock;
//   - file I/O — os.File write methods and mutating os package
//     functions, directly or through same-package callees — a disk
//     write (worse, an fsync) under a policed lock serialises every
//     operation on the shard behind a millisecond-scale syscall;
//   - record encoding — json.Marshal/Unmarshal and the WAL codec
//     entry points (frame builders, the operation binary codec),
//     directly or through same-package callees. The WAL write path's
//     contract is encode-outside-the-lock: records are serialised
//     into a prepared buffer before acquisition, and the critical
//     section covers only apply + staging of ready bytes, so a
//     marshal's allocations and reflection never extend a shard hold.
//
// The WAL's group-commit staging buffer (walBatch) is policed as a
// nested-acquisition class: taking walBatch.mu while a storeShard lock
// is held is the one sanctioned nesting (it is what keeps log order
// equal to publish order), so the second-lock rule exempts it — but
// the blocking and file-I/O rules apply under it unchanged, and it
// must be innermost: acquiring any full-class lock while walBatch.mu
// is held is flagged. The committer's contract is the same
// detach-then-act shape as the watch hub's: detach the buffer under
// walBatch.mu, perform the write+fsync after release.
//
// The analysis is function-local and approximates control flow by
// source order: a lock is considered held from the acquisition site to
// its textual release (or function end for deferred releases).
// Goroutine bodies launched under the lock are skipped (they run
// elsewhere); function literals that may execute inline are scanned.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"opdaemon/internal/analysis/lintkit"
)

// Analyzer is the lockscope checker.
var Analyzer = &lintkit.Analyzer{
	Name: "lockscope",
	Doc:  "no blocking or re-entrant calls inside storeShard critical sections",
	Run:  run,
}

// policedTypes names the struct types whose mu field delimits a
// policed critical section.
var policedTypes = map[string]bool{
	"storeShard": true,
	"inflight":   true,
	"schedQueue": true,
}

// nestedOKTypes names the struct types whose mu is policed (blocking
// and file-I/O rules apply) but whose acquisition under a full-class
// lock is sanctioned. They must be innermost: acquiring a full-class
// lock while one of these is held is still flagged.
var nestedOKTypes = map[string]bool{
	"walBatch": true,
}

// storeInterface names the interface whose methods must not be called
// under a shard lock.
const storeInterface = "Store"

// osWriteNames are the os package functions and os.File methods that
// hit the filesystem with a mutation; calling any of them (directly or
// transitively) under a policed lock is flagged. Reads are deliberately
// absent — the policed sections never read files, and a page-cache read
// is not the stall an fsync is.
var osWriteNames = map[string]bool{
	// *os.File methods.
	"Write": true, "WriteString": true, "WriteAt": true,
	"Sync": true, "ReadFrom": true,
	// Package-level functions ("Truncate" is both).
	"Truncate": true, "Create": true, "OpenFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"WriteFile": true, "MkdirAll": true, "Mkdir": true,
}

// isOSWrite reports whether fn is one of the os package's mutating
// filesystem entry points.
func isOSWrite(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" && osWriteNames[fn.Name()]
}

// jsonCodecNames are the encoding/json entry points the codec rule
// recognises.
var jsonCodecNames = map[string]bool{
	"Marshal": true, "MarshalIndent": true, "Unmarshal": true,
}

// codecFuncNames are the codec entry points — the engine's frame
// builders/record encoders and core's operation codecs, binary (WAL
// records) and JSON (the API wire format). Matched
// by name across the module's own packages (stdlib and vendored code
// excluded by the json/os checks having their own lists), so the rule
// survives the codec living in either package.
var codecFuncNames = map[string]bool{
	// engine frame builders and record encoders.
	"reserveWALFrame": true, "finishWALFrame": true,
	"encodeOpRecordV2": true, "encodeDeltaRecordV2": true,
	"appendDeleteRecord": true, "decodeWALRecord": true,
	// core.Operation binary codec.
	"AppendBinary": true, "AppendBinaryDelta": true,
	"DecodeBinaryOperation": true, "DecodeBinaryDelta": true,
	// core's append-based JSON wire codec.
	"AppendJSON": true, "AppendJSONValue": true, "AppendJSONString": true,
	"DecodeSubmit": true,
}

// codecPkgNames are the packages whose functions the codec name list
// applies to: the engine (frame builders), core (operation binary and
// JSON codecs), and the analyzer's fixture package. Pinning the packages
// keeps stdlib lookalikes — time.Time also has an AppendBinary — from
// tripping the rule.
var codecPkgNames = map[string]bool{"engine": true, "core": true, "a": true}

// isCodecCall reports whether fn serialises or deserialises a record:
// an encoding/json entry point or one of the WAL codec functions.
func isCodecCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "encoding/json" {
		return jsonCodecNames[fn.Name()]
	}
	return codecPkgNames[fn.Pkg().Name()] && codecFuncNames[fn.Name()]
}

func run(pass *lintkit.Pass) error {
	acq := newAcquirerIndex(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				s := &scanner{pass: pass, acq: acq, held: make(map[string]*heldLock)}
				s.scan(fn.Body)
			}
		}
	}
	return nil
}

// lockOp classifies a call as a policed mutex operation.
type lockOp struct {
	// path is the lock's textual identity, e.g. "sh.mu".
	path string
	// acquire is true for Lock/RLock, false for Unlock/RUnlock.
	acquire bool
	// nested marks a nested-acquisition class lock (walBatch), exempt
	// from the second-lock rule when taken under a full-class lock.
	nested bool
}

// classifyLockOp returns the lock operation described by call, or nil.
func classifyLockOp(pass *lintkit.Pass, call *ast.CallExpr) *lockOp {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return nil
	}
	// The receiver must be a mu field of a policed struct type.
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok || muSel.Sel.Name != "mu" {
		return nil
	}
	owner := pass.TypesInfo.TypeOf(muSel.X)
	if owner == nil {
		return nil
	}
	name := lintkit.TypeName(owner)
	if !policedTypes[name] && !nestedOKTypes[name] {
		return nil
	}
	return &lockOp{
		path:    types.ExprString(sel.X),
		acquire: acquire,
		nested:  nestedOKTypes[name],
	}
}

// heldLock is one acquired lock in the scanner's state.
type heldLock struct {
	// pos is the acquisition site.
	pos token.Pos
	// nested marks a nested-acquisition class lock (walBatch).
	nested bool
}

// scanner walks one function body in source order, tracking held
// policed locks and reporting violations inside critical sections.
type scanner struct {
	pass *lintkit.Pass
	acq  *acquirerIndex
	held map[string]*heldLock
}

func (s *scanner) scan(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		// Cond.Wait releases the lock it waits on, and the policed
		// sections' conditions wait on their own mutex.
		if what := lintkit.Blocking(s.pass.TypesInfo, n); what != "" && what != lintkit.CondWait {
			s.reportHeld(n.Pos(), what)
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// Runs on another goroutine; not under this section.
			return false
		case *ast.DeferStmt:
			// Deferred releases keep the lock held to function end (so
			// nothing to do); other deferred work runs during unwind,
			// after the body this scan models.
			return false
		case *ast.RangeStmt:
			s.scan(n.X)
			s.scanLoopBody(n.Body)
			return false
		case *ast.ForStmt:
			for _, part := range []ast.Node{n.Init, n.Cond, n.Post} {
				if part != nil {
					s.scan(part)
				}
			}
			s.scanLoopBody(n.Body)
			return false
		case *ast.CommClause:
			// The comm operation is part of its select, which was
			// judged as one blocking point (or, with a default, none);
			// scan only the clause body.
			for _, stmt := range n.Body {
				s.scan(stmt)
			}
			return false
		case *ast.CallExpr:
			if op := classifyLockOp(s.pass, n); op != nil {
				s.applyLockOp(n, op)
				return false
			}
			s.checkCall(n)
		}
		return true
	})
}

// scanLoopBody scans a loop body and flags every lock it acquires and
// still holds where the body ends: each iteration would take one more.
// A flagged lock is dropped from the held set, so the finding is made
// once, at its acquisition.
func (s *scanner) scanLoopBody(body *ast.BlockStmt) {
	before := maps.Clone(s.held)
	s.scan(body)
	for path, h := range s.held {
		if _, ok := before[path]; !ok {
			s.pass.Reportf(h.pos, "acquiring %s in a loop without releasing it in the loop", path)
			delete(s.held, path)
		}
	}
}

// applyLockOp updates the held set for a Lock/Unlock call, flagging
// double acquisitions, a second shard lock, and full-class acquisitions
// under the innermost-only staging lock. Nested-class acquisitions under
// a full lock are the sanctioned nesting and pass.
func (s *scanner) applyLockOp(call *ast.CallExpr, op *lockOp) {
	if !op.acquire {
		delete(s.held, op.path)
		return
	}
	if _, ok := s.held[op.path]; ok {
		s.pass.Reportf(call.Pos(), "acquiring %s while it is already held: self-deadlock", op.path)
		return
	}
	if !op.nested {
		// A nested-class lock is the sanctioned nesting: it may be taken
		// under any full-class lock (log order must equal publish order);
		// the blocking and file-I/O rules still police the section.
		for other, h := range s.held {
			if h.nested {
				s.pass.Reportf(call.Pos(),
					"acquiring %s while the staging lock %s is held: the staging lock must be innermost", op.path, other)
			} else {
				s.pass.Reportf(call.Pos(),
					"acquiring %s while %s is held: hold one shard lock at a time", op.path, other)
			}
			break
		}
	}
	s.held[op.path] = &heldLock{pos: call.Pos(), nested: op.nested}
}

// checkCall flags calls that may block, re-enter the store, or hit the
// filesystem while a policed lock is held.
func (s *scanner) checkCall(call *ast.CallExpr) {
	if len(s.held) == 0 {
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := s.pass.TypesInfo.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok && b.Name() == "close" {
			s.reportHeld(call.Pos(), "channel close")
			return
		}
		if v, ok := obj.(*types.Var); ok && isFuncValue(v) {
			s.pass.Reportf(call.Pos(),
				"call through function value %s inside a shard critical section: callbacks run arbitrary code under the lock", fun.Name)
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			s.checkCallee(call, fn, fun.Name)
		}
	case *ast.SelectorExpr:
		if selection, ok := s.pass.TypesInfo.Selections[fun]; ok {
			recv := selection.Recv()
			if types.IsInterface(recv.Underlying()) && lintkit.TypeName(recv) == storeInterface {
				s.pass.Reportf(call.Pos(),
					"call to Store.%s inside a shard critical section: a pluggable backend may block or re-enter the shard", fun.Sel.Name)
				return
			}
			if v, ok := selection.Obj().(*types.Var); ok && isFuncValue(v) {
				s.pass.Reportf(call.Pos(),
					"call through function value %s inside a shard critical section: callbacks run arbitrary code under the lock", fun.Sel.Name)
				return
			}
		}
		if fn, ok := s.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			s.checkCallee(call, fn, fun.Sel.Name)
		}
	}
}

// checkCallee applies the resolved-function rules at a call site under
// a held lock (checkCall's guard): direct os writes and codec calls,
// transitive lock re-acquisition, transitive file I/O and encoding.
func (s *scanner) checkCallee(call *ast.CallExpr, fn *types.Func, name string) {
	path := s.heldPath()
	if isOSWrite(fn) {
		s.pass.Reportf(call.Pos(),
			"%s inside the %s critical section: file I/O under a policed lock stalls every operation behind it; stage bytes under the lock, write after unlock", fn.FullName(), path)
		return
	}
	if isCodecCall(fn) {
		s.pass.Reportf(call.Pos(),
			"%s inside the %s critical section encodes a record under a policed lock: encode into a buffer before acquiring the lock, stage the prepared bytes inside it", fn.FullName(), path)
		return
	}
	fl := s.acq.flags(fn)
	switch {
	case fl&acqFull != 0:
		s.pass.Reportf(call.Pos(),
			"call to %s inside a shard critical section re-acquires a shard lock", name)
	case fl&acqNested != 0 && s.heldNestedPath() != "":
		s.pass.Reportf(call.Pos(),
			"call to %s while the staging lock %s is held re-acquires it: self-deadlock", name, s.heldNestedPath())
	}
	if fl&acqIO != 0 {
		s.pass.Reportf(call.Pos(),
			"call to %s inside the %s critical section performs file I/O: stage bytes under the lock, write after unlock", name, path)
		return
	}
	if fl&acqCodec != 0 {
		s.pass.Reportf(call.Pos(),
			"call to %s inside the %s critical section encodes a record: encode into a buffer before acquiring the lock, stage the prepared bytes inside it", name, path)
	}
}

// heldNestedPath returns the path of a held nested-class lock, or "".
func (s *scanner) heldNestedPath() string {
	for path, h := range s.held {
		if h.nested {
			return path
		}
	}
	return ""
}

// heldPath returns the path of a held policed lock, or "" when none is.
func (s *scanner) heldPath() string {
	for path := range s.held {
		return path
	}
	return ""
}

// reportHeld reports a blocking operation if any policed lock is held.
func (s *scanner) reportHeld(pos token.Pos, what string) {
	if path := s.heldPath(); path != "" {
		s.pass.Reportf(pos, "%s inside the %s critical section can stall every operation on the shard", what, path)
	}
}

// isFuncValue reports whether v is a variable (parameter, local,
// field) of function type — a callback, as opposed to a declared
// function.
func isFuncValue(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Signature)
	return ok
}

// acqFlags describes what calling a function does, transitively
// through same-package callees.
type acqFlags uint8

const (
	// acqFull: acquires a full-class policed lock (storeShard and
	// friends) — calling it under any policed lock risks re-entrant
	// deadlock.
	acqFull acqFlags = 1 << iota
	// acqNested: acquires a nested-class lock (walBatch) — dangerous
	// only when that same class is already held, since taking it under
	// a full-class lock is the sanctioned nesting.
	acqNested
	// acqIO: performs a mutating os filesystem call — never allowed
	// under a policed lock.
	acqIO
	// acqCodec: encodes or decodes a record (json or the WAL binary
	// codec) — never allowed under a policed lock; encode first, stage
	// the prepared bytes inside the critical section.
	acqCodec
)

// acquirerIndex answers "what does calling this package-level function
// do?" — policed lock acquisitions and file I/O, transitively through
// same-package calls.
type acquirerIndex struct {
	pass  *lintkit.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]acqFlags
}

func newAcquirerIndex(pass *lintkit.Pass) *acquirerIndex {
	idx := &acquirerIndex{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		memo:  make(map[*types.Func]acqFlags),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					idx.decls[obj] = fn
				}
			}
		}
	}
	return idx
}

// flags reports what fn (directly or through same-package callees)
// acquires and whether it touches the filesystem. Unknown functions —
// other packages, interface methods — report nothing; the
// Store-interface rule covers the pluggable path and isOSWrite the
// direct os calls.
func (idx *acquirerIndex) flags(fn *types.Func) acqFlags {
	if got, ok := idx.memo[fn]; ok {
		return got
	}
	decl, ok := idx.decls[fn]
	if !ok {
		return 0
	}
	// Break recursion cycles pessimistically: a cycle that locks is
	// caught at the member that locks directly.
	idx.memo[fn] = 0
	var result acqFlags
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := classifyLockOp(idx.pass, call); op != nil {
			if op.acquire {
				if op.nested {
					result |= acqNested
				} else {
					result |= acqFull
				}
			}
			return true
		}
		var callee types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = idx.pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			callee = idx.pass.TypesInfo.Uses[fun.Sel]
		}
		if cf, ok := callee.(*types.Func); ok {
			switch {
			case isOSWrite(cf):
				result |= acqIO
			case isCodecCall(cf):
				result |= acqCodec
			case cf != fn:
				result |= idx.flags(cf)
			}
		}
		return true
	})
	idx.memo[fn] = result
	return result
}
