package rules

import (
	"fmt"
	"slices"
	"strings"

	"firestore/internal/doc"
	"firestore/internal/status"
)

// Auth is the authenticated end-user identity a request carries (from
// Firebase Authentication in production). A nil *Auth means an
// unauthenticated request.
type Auth struct {
	UID   string
	Token map[string]doc.Value // additional claims
}

// Request is one access to authorize.
type Request struct {
	Method Method
	Path   doc.Name
	Auth   *Auth
	// Resource is the existing document (nil for creates or reads of
	// missing documents).
	Resource *doc.Document
	// NewResource is the post-write document (request.resource) for
	// create/update.
	NewResource *doc.Document
	// Get fetches another document transactionally consistent with the
	// operation being authorized (nil disables get()/exists()).
	Get func(name doc.Name) (*doc.Document, error)
}

// ErrDenied reports a request denied by the ruleset.
var ErrDenied = status.New(status.PermissionDenied, "rules", "permission denied")

// evalBudget bounds expression evaluation work (get() calls) per request.
const evalBudget = 10

// Allow reports whether the ruleset permits the request. Any matching
// match block whose allow statement for the method evaluates to true
// grants access; evaluation errors in a condition deny that condition
// (they never grant).
func (rs *Ruleset) Allow(req *Request) bool {
	segs := req.Path.Segments()
	budget := evalBudget
	for _, m := range rs.Matches {
		if allowMatch(m, segs, map[string]doc.Value{}, req, &budget) {
			return true
		}
	}
	return false
}

// Authorize is Allow returning ErrDenied on failure.
func (rs *Ruleset) Authorize(req *Request) error {
	if rs.Allow(req) {
		return nil
	}
	return fmt.Errorf("%w: %s %s", ErrDenied, req.Method, req.Path)
}

// allowMatch walks one match block against remaining path segments.
func allowMatch(m *MatchBlock, segs []string, captures map[string]doc.Value, req *Request, budget *int) bool {
	rest, caps, ok := matchPattern(m.Pattern, segs, captures)
	if !ok {
		return false
	}
	if len(rest) == 0 {
		// Fully consumed: this block's allows apply.
		for _, a := range m.Allows {
			if !methodIn(a.Methods, req.Method) {
				continue
			}
			if a.Cond == nil {
				return true
			}
			env := &env{req: req, captures: caps, budget: budget}
			v, err := env.eval(a.Cond)
			if err == nil && v.Kind() == doc.KindBool && v.BoolVal() {
				return true
			}
		}
	}
	for _, c := range m.Children {
		if len(rest) == 0 {
			continue
		}
		if allowMatch(c, rest, caps, req, budget) {
			return true
		}
	}
	return false
}

// matchPattern consumes pattern segments from segs, returning the
// remaining segments and extended captures.
func matchPattern(pattern []Segment, segs []string, captures map[string]doc.Value) (rest []string, caps map[string]doc.Value, ok bool) {
	caps = captures
	cloned := false
	capture := func(name string, v doc.Value) {
		if !cloned {
			m := make(map[string]doc.Value, len(caps)+1)
			for k, vv := range caps {
				m[k] = vv
			}
			caps = m
			cloned = true
		}
		caps[name] = v
	}
	for i, p := range pattern {
		if p.Rest {
			// Capture the remaining path (joined) and consume it all.
			capture(p.Text, doc.String(strings.Join(segs[0:], "/")))
			if len(pattern) != i+1 {
				return nil, nil, false // ** must be last
			}
			if len(segs) == 0 {
				return nil, nil, false // ** must consume at least one segment
			}
			return nil, caps, true
		}
		if len(segs) == 0 {
			return nil, nil, false
		}
		switch {
		case p.Var:
			capture(p.Text, doc.String(segs[0]))
		case p.Text != segs[0]:
			return nil, nil, false
		}
		segs = segs[1:]
	}
	return segs, caps, true
}

func methodIn(ms []Method, m Method) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// env is one condition evaluation context.
type env struct {
	req      *Request
	captures map[string]doc.Value
	budget   *int
}

var errEval = status.New(status.PermissionDenied, "rules", "evaluation error")

func (e *env) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errEval, fmt.Sprintf(format, args...))
}

// eval evaluates an expression to a doc.Value.
func (e *env) eval(x Expr) (doc.Value, error) {
	switch n := x.(type) {
	case *LitExpr:
		switch v := n.Value.(type) {
		case nil:
			return doc.Null(), nil
		case bool:
			return doc.Bool(v), nil
		case int64:
			return doc.Int(v), nil
		case float64:
			return doc.Double(v), nil
		case string:
			return doc.String(v), nil
		}
		return doc.Null(), e.errf("bad literal %T", n.Value)
	case *VarExpr:
		return e.lookupVar(n.Name)
	case *MemberExpr:
		return e.member(n)
	case *IndexExpr:
		xv, err := e.eval(n.X)
		if err != nil {
			return doc.Null(), err
		}
		iv, err := e.eval(n.Index)
		if err != nil {
			return doc.Null(), err
		}
		return e.index(xv, iv)
	case *UnaryExpr:
		xv, err := e.eval(n.X)
		if err != nil {
			return doc.Null(), err
		}
		switch n.Op {
		case "!":
			if xv.Kind() != doc.KindBool {
				return doc.Null(), e.errf("! on %s", xv.Kind())
			}
			return doc.Bool(!xv.BoolVal()), nil
		case "-":
			switch {
			case xv.IsInt():
				return doc.Int(-xv.IntVal()), nil
			case xv.Kind() == doc.KindNumber:
				return doc.Double(-xv.DoubleVal()), nil
			}
			return doc.Null(), e.errf("- on %s", xv.Kind())
		}
		return doc.Null(), e.errf("unknown unary %q", n.Op)
	case *BinaryExpr:
		return e.binary(n)
	case *ListExpr:
		elems := make([]doc.Value, len(n.Elems))
		for i, el := range n.Elems {
			v, err := e.eval(el)
			if err != nil {
				return doc.Null(), err
			}
			elems[i] = v
		}
		return doc.Array(elems...), nil
	case *CallExpr:
		return e.call(n)
	case *PathExpr:
		s, err := e.pathString(n)
		if err != nil {
			return doc.Null(), err
		}
		return doc.String(s), nil
	}
	return doc.Null(), e.errf("unknown expression %T", x)
}

func (e *env) lookupVar(name string) (doc.Value, error) {
	if v, ok := e.captures[name]; ok {
		return v, nil
	}
	switch name {
	case "request":
		return e.requestValue(), nil
	case "resource":
		return docValue(e.req.Resource), nil
	}
	return doc.Null(), e.errf("unknown variable %q", name)
}

// requestValue builds the `request` map: auth, method, resource, path.
func (e *env) requestValue() doc.Value {
	m := map[string]doc.Value{
		"method": doc.String(string(e.req.Method)),
		"path":   doc.String(e.req.Path.String()),
		"auth":   doc.Null(),
	}
	if e.req.Auth != nil {
		auth := map[string]doc.Value{"uid": doc.String(e.req.Auth.UID)}
		if len(e.req.Auth.Token) > 0 {
			auth["token"] = doc.Map(e.req.Auth.Token)
		}
		m["auth"] = doc.Map(auth)
	}
	m["resource"] = docValue(e.req.NewResource)
	return doc.Map(m)
}

// docValue converts a document to the rules runtime shape
// {data: {...}, id: "...", name: "..."} or null.
func docValue(d *doc.Document) doc.Value {
	if d == nil {
		return doc.Null()
	}
	return doc.Map(map[string]doc.Value{
		"data": doc.Map(d.Fields),
		"id":   doc.String(d.Name.ID()),
		"name": doc.String(d.Name.String()),
	})
}

func (e *env) member(n *MemberExpr) (doc.Value, error) {
	xv, err := e.eval(n.X)
	if err != nil {
		return doc.Null(), err
	}
	if xv.Kind() != doc.KindMap {
		return doc.Null(), e.errf("member %q on %s", n.Field, xv.Kind())
	}
	v, ok := xv.MapVal()[n.Field]
	if !ok {
		return doc.Null(), e.errf("missing member %q", n.Field)
	}
	return v, nil
}

func (e *env) index(xv, iv doc.Value) (doc.Value, error) {
	switch xv.Kind() {
	case doc.KindArray:
		if !iv.IsInt() {
			return doc.Null(), e.errf("array index must be int")
		}
		i := iv.IntVal()
		arr := xv.ArrayVal()
		if i < 0 || i >= int64(len(arr)) {
			return doc.Null(), e.errf("array index %d out of range", i)
		}
		return arr[i], nil
	case doc.KindMap:
		if iv.Kind() != doc.KindString {
			return doc.Null(), e.errf("map index must be string")
		}
		v, ok := xv.MapVal()[iv.StringVal()]
		if !ok {
			return doc.Null(), e.errf("missing key %q", iv.StringVal())
		}
		return v, nil
	}
	return doc.Null(), e.errf("index on %s", xv.Kind())
}

func (e *env) binary(n *BinaryExpr) (doc.Value, error) {
	// Short-circuit booleans. Firebase treats an erroring operand of ||
	// as false-ish (error-absorbing or); we propagate errors on && but
	// absorb them on || to match the "deny by default" posture.
	switch n.Op {
	case "&&":
		xv, err := e.eval(n.X)
		if err != nil {
			return doc.Null(), err
		}
		if xv.Kind() != doc.KindBool {
			return doc.Null(), e.errf("&& on %s", xv.Kind())
		}
		if !xv.BoolVal() {
			return doc.Bool(false), nil
		}
		return e.evalBool(n.Y)
	case "||":
		xv, err := e.evalBool(n.X)
		if err == nil && xv.BoolVal() {
			return doc.Bool(true), nil
		}
		return e.evalBool(n.Y)
	}
	xv, err := e.eval(n.X)
	if err != nil {
		return doc.Null(), err
	}
	yv, err := e.eval(n.Y)
	if err != nil {
		return doc.Null(), err
	}
	switch n.Op {
	case "==":
		return doc.Bool(doc.Equal(xv, yv)), nil
	case "!=":
		return doc.Bool(!doc.Equal(xv, yv)), nil
	case "<", "<=", ">", ">=":
		if !comparableKinds(xv, yv) {
			return doc.Null(), e.errf("%s between %s and %s", n.Op, xv.Kind(), yv.Kind())
		}
		c := doc.Compare(xv, yv)
		switch n.Op {
		case "<":
			return doc.Bool(c < 0), nil
		case "<=":
			return doc.Bool(c <= 0), nil
		case ">":
			return doc.Bool(c > 0), nil
		default:
			return doc.Bool(c >= 0), nil
		}
	case "in":
		switch yv.Kind() {
		case doc.KindArray:
			for _, el := range yv.ArrayVal() {
				if doc.Equal(el, xv) {
					return doc.Bool(true), nil
				}
			}
			return doc.Bool(false), nil
		case doc.KindMap:
			if xv.Kind() != doc.KindString {
				return doc.Bool(false), nil
			}
			_, ok := yv.MapVal()[xv.StringVal()]
			return doc.Bool(ok), nil
		}
		return doc.Null(), e.errf("in on %s", yv.Kind())
	case "+":
		if xv.Kind() == doc.KindString && yv.Kind() == doc.KindString {
			return doc.String(xv.StringVal() + yv.StringVal()), nil
		}
		return e.arith(n.Op, xv, yv)
	case "-", "*", "/", "%":
		return e.arith(n.Op, xv, yv)
	}
	return doc.Null(), e.errf("unknown operator %q", n.Op)
}

func comparableKinds(a, b doc.Value) bool { return a.Kind() == b.Kind() }

func (e *env) evalBool(x Expr) (doc.Value, error) {
	v, err := e.eval(x)
	if err != nil {
		return doc.Bool(false), err
	}
	if v.Kind() != doc.KindBool {
		return doc.Bool(false), e.errf("expected bool, got %s", v.Kind())
	}
	return v, nil
}

func (e *env) arith(op string, xv, yv doc.Value) (doc.Value, error) {
	if xv.Kind() != doc.KindNumber || yv.Kind() != doc.KindNumber {
		return doc.Null(), e.errf("%s between %s and %s", op, xv.Kind(), yv.Kind())
	}
	if xv.IsInt() && yv.IsInt() {
		a, b := xv.IntVal(), yv.IntVal()
		switch op {
		case "+":
			return doc.Int(a + b), nil
		case "-":
			return doc.Int(a - b), nil
		case "*":
			return doc.Int(a * b), nil
		case "/":
			if b == 0 {
				return doc.Null(), e.errf("division by zero")
			}
			return doc.Int(a / b), nil
		case "%":
			if b == 0 {
				return doc.Null(), e.errf("modulo by zero")
			}
			return doc.Int(a % b), nil
		}
	}
	a, b := xv.DoubleVal(), yv.DoubleVal()
	switch op {
	case "+":
		return doc.Double(a + b), nil
	case "-":
		return doc.Double(a - b), nil
	case "*":
		return doc.Double(a * b), nil
	case "/":
		return doc.Double(a / b), nil
	}
	return doc.Null(), e.errf("%s on doubles", op)
}

func (e *env) call(n *CallExpr) (doc.Value, error) {
	// Built-in functions get(path) and exists(path).
	if fn, ok := n.Fn.(*VarExpr); ok {
		switch fn.Name {
		case "get", "exists":
			if len(n.Args) != 1 {
				return doc.Null(), e.errf("%s takes one argument", fn.Name)
			}
			return e.fetch(fn.Name, n.Args[0])
		}
		return doc.Null(), e.errf("unknown function %q", fn.Name)
	}
	// Method calls: x.size(), x.hasAll(list), m.keys().
	if m, ok := n.Fn.(*MemberExpr); ok {
		recv, err := e.eval(m.X)
		if err != nil {
			return doc.Null(), err
		}
		return e.method(recv, m.Field, n.Args)
	}
	return doc.Null(), e.errf("uncallable expression")
}

func (e *env) method(recv doc.Value, name string, args []Expr) (doc.Value, error) {
	switch name {
	case "size":
		switch recv.Kind() {
		case doc.KindString:
			return doc.Int(int64(len(recv.StringVal()))), nil
		case doc.KindArray:
			return doc.Int(int64(len(recv.ArrayVal()))), nil
		case doc.KindMap:
			return doc.Int(int64(len(recv.MapVal()))), nil
		}
	case "keys":
		if recv.Kind() == doc.KindMap {
			m := recv.MapVal()
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			slices.Sort(keys) // deterministic order
			elems := make([]doc.Value, len(keys))
			for i, k := range keys {
				elems[i] = doc.String(k)
			}
			return doc.Array(elems...), nil
		}
	case "hasAll":
		if recv.Kind() == doc.KindArray && len(args) == 1 {
			want, err := e.eval(args[0])
			if err != nil {
				return doc.Null(), err
			}
			if want.Kind() != doc.KindArray {
				return doc.Null(), e.errf("hasAll takes a list")
			}
			for _, w := range want.ArrayVal() {
				if !slices.ContainsFunc(recv.ArrayVal(), func(el doc.Value) bool { return doc.Equal(el, w) }) {
					return doc.Bool(false), nil
				}
			}
			return doc.Bool(true), nil
		}
	case "startsWith":
		if recv.Kind() == doc.KindString && len(args) == 1 {
			arg, err := e.eval(args[0])
			if err != nil {
				return doc.Null(), err
			}
			if arg.Kind() != doc.KindString {
				return doc.Null(), e.errf("startsWith takes a string")
			}
			return doc.Bool(strings.HasPrefix(recv.StringVal(), arg.StringVal())), nil
		}
	}
	return doc.Null(), e.errf("unknown method %s on %s", name, recv.Kind())
}

// fetch implements get()/exists(): transactionally consistent lookups of
// other documents, e.g. access control lists (§III-E).
func (e *env) fetch(fn string, arg Expr) (doc.Value, error) {
	if e.req.Get == nil {
		return doc.Null(), e.errf("%s unavailable", fn)
	}
	if *e.budget <= 0 {
		return doc.Null(), e.errf("rules evaluation budget exhausted")
	}
	*e.budget--
	var pathStr string
	if pe, ok := arg.(*PathExpr); ok {
		s, err := e.pathString(pe)
		if err != nil {
			return doc.Null(), err
		}
		pathStr = s
	} else {
		v, err := e.eval(arg)
		if err != nil {
			return doc.Null(), err
		}
		if v.Kind() != doc.KindString {
			return doc.Null(), e.errf("%s takes a path", fn)
		}
		pathStr = v.StringVal()
	}
	name, err := doc.ParseName(pathStr)
	if err != nil {
		return doc.Null(), e.errf("bad path %q: %v", pathStr, err)
	}
	d, err := e.req.Get(name)
	if err != nil {
		return doc.Null(), e.errf("get %s: %v", name, err)
	}
	if fn == "exists" {
		return doc.Bool(d != nil), nil
	}
	if d == nil {
		return doc.Null(), e.errf("get %s: not found", name)
	}
	return docValue(d), nil
}

func (e *env) pathString(pe *PathExpr) (string, error) {
	var b strings.Builder
	for _, part := range pe.Parts {
		v, err := e.eval(part)
		if err != nil {
			return "", err
		}
		if v.Kind() != doc.KindString {
			return "", e.errf("path segment must be a string, got %s", v.Kind())
		}
		b.WriteString("/")
		b.WriteString(v.StringVal())
	}
	return b.String(), nil
}
