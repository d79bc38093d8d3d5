package analysis

import (
	"go/ast"
)

// ObsDiscipline enforces bounded metric cardinality and one way to reach
// a labelled instrument. Every metric name reaching an internal/obs
// registration (Counter, Gauge, GaugeFunc, Histogram) or family
// declaration (CounterVec, GaugeVec, HistogramVec — label names too) is a
// compile-time string constant: formatting a name per request would mint
// an unbounded family set, blowing up the registry and every scrape. And
// an obs.Labels literal is constant in keys and values: a label value
// known only at run time (a database, a peer) reaches its instrument
// through the family's Vec, declared once and held, never through a map
// built where the event happens.
// The same discipline covers keyviz instrumentation points: the site
// argument of keyviz.Collector.Record names a fixed event kind on the
// keyspace timeline, never a per-request string. internal/obs itself is
// exempt: it is where a Vec's values become a label set.
var ObsDiscipline = &Analyzer{
	Name: "obsdiscipline",
	Doc:  "metric names and label sets given to internal/obs and keyviz event sites are compile-time constants; run-time label values go through a Vec",
	Run:  runObsDiscipline,
}

const (
	obsPath    = "firestore/internal/obs"
	keyvizPath = "firestore/internal/keyviz"
)

// obsRegistrationMethods maps an obs.Registry method to how many leading
// arguments must be constant: the name, or (-1) every argument.
var obsRegistrationMethods = map[string]int{
	"Counter":      1,
	"Gauge":        1,
	"GaugeFunc":    1,
	"Histogram":    1,
	"CounterVec":   -1,
	"GaugeVec":     -1,
	"HistogramVec": -1,
}

func runObsDiscipline(pass *Pass) {
	if pass.ImportPath == obsPath {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, arg := range constArgs(pass, n) {
					if _, isConst := constString(pass.Info, arg); !isConst {
						pass.Reportf(arg.Pos(),
							"metric name must be a compile-time constant (per-request names explode metric cardinality); hoist it to a const")
					}
				}
			case *ast.CompositeLit:
				checkLabelLiteral(pass, n)
			}
			return true
		})
	}
}

// constArgs returns the arguments of call that must be constant: the
// name (and label names) of an obs.Registry registration, or the site of
// a keyviz.Collector.Record instrumentation point.
func constArgs(pass *Pass, call *ast.CallExpr) []ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return nil
	}
	n, ok := obsRegistrationMethods[sel.Sel.Name]
	switch {
	case ok && isNamedType(selection.Recv(), obsPath, "Registry"):
	case sel.Sel.Name == "Record" && isNamedType(selection.Recv(), keyvizPath, "Collector"):
		n = 1
	default:
		return nil
	}
	if n < 0 || n > len(call.Args) {
		n = len(call.Args)
	}
	return call.Args[:n]
}

// checkLabelLiteral flags an obs.Labels composite literal with a
// non-constant key or value.
func checkLabelLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !isNamedType(tv.Type, obsPath, "Labels") {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if _, isConst := constString(pass.Info, kv.Key); !isConst {
			pass.Reportf(kv.Key.Pos(),
				"obs.Labels key must be a compile-time constant: the label set of a metric family is fixed")
		}
		if _, isConst := constString(pass.Info, kv.Value); !isConst {
			pass.Reportf(kv.Value.Pos(),
				"obs.Labels value must be a compile-time constant: a run-time label value reaches its instrument through the family's Vec (reg.CounterVec(name, keys...).With(values...))")
		}
	}
}
