package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern

/** Nucleus-decomposition baseline: the AND-style local algorithm of
  * Sariyüce, Seshadhri & Pinar (PVLDB'18) specialized to (1, h)-nuclei,
  * which coincide with (k, Ψ)-cores for h-clique Ψ (Section 5.4).
  *
  * Each vertex starts at its Ψ-degree; one asynchronous sweep updates v to
  * the h-index of { min over the OTHER members' current values, per instance
  * containing v }. Sweeps repeat until a fixpoint — which is exactly the
  * clique-core number of every vertex. Run on a single core, as the paper
  * does for fair comparison.
  */
object NucleusAND {

  /** Clique/pattern-core numbers via asynchronous local h-index iteration. */
  def coreNumbers(g: LocalGraph, psi: Pattern): Array[Long] =
    coreNumbers(CliqueCore.instancesOf(g, psi))

  private def coreNumbers(s: CliqueCore.Instances): Array[Long] = {
    val n          = s.n
    val (off, ids) = CliqueCore.index(s)
    val est = new Array[Long](n) // start at Ψ-degree
    var v   = 0
    while (v < n) { est(v) = s.degrees(v); v += 1 }

    var changed = true
    while (changed) {
      changed = false
      v = 0
      while (v < n) {
        if (off(v + 1) > off(v)) {
          val vals = new Array[Long](off(v + 1) - off(v))
          var i = 0
          while (i < vals.length) {
            val base = ids(off(v) + i) * s.h
            var mn   = Long.MaxValue
            var j    = base
            while (j < base + s.h) {
              val u = s.data(j)
              if (u != v && est(u) < mn) mn = est(u)
              j += 1
            }
            vals(i) = if (mn == Long.MaxValue) est(v) else mn
            i += 1
          }
          val h = hIndex(vals)
          if (h < est(v)) { est(v) = h; changed = true }
        }
        v += 1
      }
    }
    est
  }

  /** h-index of a multiset: max k with at least k values >= k. */
  def hIndex(vals: Array[Long]): Long = {
    val sorted = vals.clone()
    java.util.Arrays.sort(sorted) // ascending: the (h + 1)-th largest is sorted(length - 1 - h)
    var h = 0
    while (h < sorted.length && sorted(sorted.length - 1 - h) >= h + 1) h += 1
    h
  }

  /** The (k_max, Ψ)-core computed via the nucleus route. */
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val store = CliqueCore.instancesOf(g, psi)
    if (store.count == 0) return Subgraph.none(g)
    val core = coreNumbers(store)
    val kMax = core.max
    val vs   = core.indices.filter(core(_) >= kMax).toArray
    Subgraph(vs, store.countWithin(vs))
  }
}
