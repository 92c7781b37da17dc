// Package statnames enforces the stats registry naming convention.
//
// Every metric key in the repository — counters, histograms, gauges —
// reads "layer.metric[.detail]": lowercase dotted segments of
// [a-z0-9_], e.g. "hostif.qd", "ftl.gc.debt", "db.scan.conv". The
// convention is what makes snapshots, bench JSON and telemetry series
// greppable and stable; one "FTL-GCDebt" in a hot path silently forks
// the namespace. The analyzer checks every constant-string key passed
// to the name-taking methods of biscuit/internal/stats registries and
// their Prefixed views. Prefix arguments (Prefixed) must be "" or
// dotted segments each ending in "." ("ssd0.", "tenant.acme."), since
// they concatenate with bare leaf names. Dynamically built names
// (fmt.Sprintf, name+".suffix") are out of scope — the convention
// binds the literals.
//
// Genuinely exceptional keys waive the check with a
// //biscuitvet:ignore statnames: <reason> comment on the line, the line
// above, or in the file header.
package statnames

import (
	"go/ast"
	"go/constant"
	"regexp"

	"biscuit/internal/analysis/framework"
)

// statsPath is the registry package whose methods take metric keys.
const statsPath = "biscuit/internal/stats"

// nameMethods maps receiver type -> methods whose first argument is a
// metric name.
var nameMethods = map[string]map[string]bool{
	"Counters":           {"Add": true, "Get": true},
	"Histograms":         {"Observe": true, "H": true, "Get": true},
	"Gauges":             {"G": true, "Set": true, "Add": true, "Get": true},
	"PrefixedCounters":   {"Add": true, "Get": true},
	"PrefixedHistograms": {"Observe": true, "H": true, "Get": true},
	"PrefixedGauges":     {"G": true, "Set": true, "Add": true, "Get": true},
}

// prefixReceivers are the types whose Prefixed method takes a prefix
// (dotted segments, trailing dot) rather than a leaf name.
var prefixReceivers = map[string]bool{
	"Counters": true, "Histograms": true, "Gauges": true,
	"PrefixedCounters": true, "PrefixedGauges": true,
}

var (
	nameRe   = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
	prefixRe = regexp.MustCompile(`^([a-z0-9_]+\.)+$`)
)

// Analyzer is the statnames check.
var Analyzer = &framework.Analyzer{
	Name: "statnames",
	Doc:  "enforce lowercase dotted layer.metric naming for stats registry keys",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if framework.PkgPath(pass.Pkg) == statsPath {
		return nil // the registry package itself names nothing
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := framework.FuncFor(pass.TypesInfo, call.Fun)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != statsPath {
				return true
			}
			recv := framework.ReceiverTypeName(fn)
			isPrefix := fn.Name() == "Prefixed" && prefixReceivers[recv]
			if !isPrefix && !nameMethods[recv][fn.Name()] {
				return true
			}
			key, ok := constString(pass, call.Args[0])
			if !ok {
				return true // dynamic names are out of scope
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			if isPrefix {
				if key != "" && !prefixRe.MatchString(key) {
					pass.Reportf(call.Pos(),
						"stats prefix %q is not dotted lowercase segments ending in \".\" (want e.g. \"ssd0.\"; suppress with %s)",
						key, pass.Directive())
				}
				return true
			}
			if !nameRe.MatchString(key) {
				pass.Reportf(call.Pos(),
					"stats key %q is not lowercase dotted layer.metric form (want e.g. \"hostif.qd\"; suppress with %s)",
					key, pass.Directive())
			}
			return true
		})
	}
	return nil
}

// constString resolves arg to a compile-time string constant: a
// literal, a named const, or a constant concatenation.
func constString(pass *framework.Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
