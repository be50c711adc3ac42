// Code generated by cmd/obsgen. DO NOT EDIT.
//
// Manifest is the module's //kws:hotpath inventory. The static analyzer
// (this package) forbids allocation-prone constructs inside these
// functions; the AllocsPerRun budget test in internal/core walks this list
// to require a runtime allocation budget for each entry. Removing an
// annotation to silence the lint also removes the function from the
// runtime budget — visibly, in this generated diff.
package hotpath

// Manifest lists every //kws:hotpath function, "importpath.Func" or
// "importpath.(*Recv).Method", sorted.
var Manifest = []string{
	"kwsdbg/internal/core.(*bindingCache).get",
	"kwsdbg/internal/core.(*oracle).IsAlive",
	"kwsdbg/internal/core.(*run).classify",
	"kwsdbg/internal/engine.(*PreparedCache).Get",
	"kwsdbg/internal/engine.(*execState).enumerate",
	"kwsdbg/internal/engine.(*rowSet).has",
	"kwsdbg/internal/invidx.lookupMetrics.record",
	"kwsdbg/internal/lattice.(*Lattice).Prune",
	"kwsdbg/internal/obs/flight.(*Log).Emit",
	"kwsdbg/internal/probecache.(*Cache).Lookup",
	"kwsdbg/internal/report.(*jsonWriter).query",
}
