// The benchmark is a module of its own so that it builds with its own
// build file; the replace points at the tree it measures.
module gpushare/bench

go 1.22

require gpushare v0.0.0

replace gpushare => ../
