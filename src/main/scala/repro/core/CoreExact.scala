package repro.core

import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** CoreExact (Algorithm 4): exact CDS/PDS via (k, Ψ)-cores.
  *
  * Optimizations over [[Exact]], as in Section 6.1:
  *  1. a tighter start for the search on α — l = ρ'' (best residual /
  *     component density from the decomposition);
  *  2. the CDS is located inside the (k'', Ψ)-core (Prunings 1+2), and the
  *     search runs per connected component (Pruning 3);
  *  3. instances grouped by vertex set (construct+; skipped for cliques,
  *     which never share a vertex set). Algorithm 4's Lemma-8 pruning of
  *     network nodes is left out: the network is exact without it, and
  *     inside the (k, Ψ)-cores it searches it pruned nothing (DESIGN.md
  *     deviation 9);
  *  4. as the lower bound l grows, components shrink to the (⌈l⌉, Ψ)-core,
  *     so later networks get smaller;
  *  5. not in the paper: no network for a component whose load bound,
  *     h·μ(S) = Σ_{v∈S} deg_S(v) ≤ |S|·maxDeg (Charikar's LP dual), shows
  *     nothing denser than the best so far: maxDeg·|S_best| ≤ h·μ_best, in
  *     integers. Not retested after a successful probe: a source side S
  *     meeting it is maxDeg-regular, so it lies in the (maxDeg, Ψ)-core, a
  *     peel residual at least as dense as S, and cannot have beaten ρ''.
  */
object CoreExact {

  /** Instrumentation for Table 3 / Figure 9: per-probe network node and arc
    * counts ([[repro.flow.Dinic.arcs]]), and Dinic phases over all probes.
    * Each of the `components` of the (k'', Ψ)-core is proved to hold nothing
    * denser than the answer once: by the load bound before any network
    * (item 5, `certifiedByBound`) or by a failed probe at α = ρ
    * (`certifiedByCut`). */
  final case class Stats(coreDecompNanos: Long,
                         totalNanos: Long,
                         networkNodeCounts: Vector[Int],
                         probes: Int,
                         networkArcCounts: Vector[Long] = Vector.empty,
                         augmentingPhases: Long = 0L,
                         certifiedByBound: Int = 0,
                         certifiedByCut: Int = 0,
                         components: Int = 0)

  def run(g: LocalGraph, psi: Pattern): Subgraph = runWithStats(g, psi)._1

  def runWithStats(g: LocalGraph, psi: Pattern): (Subgraph, Stats) = {
    val t0    = System.nanoTime()
    val store = CliqueCore.instancesOf(g, psi)
    val dec   = CliqueCore.peel(store)
    val tCore = System.nanoTime() - t0
    if (store.count == 0)
      return (Subgraph.none(g), Stats(tCore, System.nanoTime() - t0, Vector.empty, 0))

    val h    = psi.numVertices
    val core = dec.core

    // ⌈ρ(S)⌉, exactly
    def ceilDensity(s: Subgraph): Long = (s.instances + s.size - 1) / s.size

    // Pruning 1: ρ' from the residual subgraphs of the decomposition.
    var best    = dec.bestResidual
    val kPrime  = math.max(1L, ceilDensity(best))
    val kpVerts = dec.coreVertices(kPrime)

    // Pruning 2: per-component densities of the (k', Ψ)-core; the same pass
    // over Λ gives each component its largest load (Optimization 5)
    val compsKp        = g.components(kpVerts)
    val (muKp, loadKp) = store.loads(compsKp)
    compsKp.indices.foreach { i =>
      val c = Subgraph(compsKp(i), muKp(i))
      if (c.density > best.density) best = c
    }
    val kPP = math.max(kPrime, ceilDensity(best))

    // Pruning 3: the components of the (k'', Ψ)-core (the (k', Ψ)-core unless
    // Pruning 2 raised k'') and their largest loads. As the best only grows,
    // only a component that misses the bound now can need a network; the
    // first that does gives each of them its renumbered store, in one pass.
    val (comps, load) =
      if (kPP == kPrime) (compsKp, loadKp)
      else { val cs = g.components(dec.coreVertices(kPP)); (cs, store.loads(cs)._2) }
    def bounded(load: Long, b: Subgraph): Boolean = load * b.size <= h.toLong * b.instances
    lazy val lists = store.partition(comps.indices.map(c => if (bounded(load(c), best)) Array.emptyIntArray else comps(c)))
    val search = new DensitySearch((nv, local) => new DensestFlow.Network(nv, DensestFlow.grouping(psi)(local.toArrays), h), best)
    // positions in vs of the vertices of the (k, Ψ)-core
    def inCore(vs: Array[Int], k: Long): Array[Int] =
      java.util.stream.IntStream.range(0, vs.length).filter(i => core(vs(i)) >= k).toArray
    var byBound, byCut = 0
    comps.indices.foreach { c =>
      val cc = comps(c)
      val b  = search.best
      // shrink to the (⌈ρ⌉, Ψ)-core of the best density ρ so far if it exceeds
      // k''; loads in that core are no larger, so a component whose own load
      // meets the bound (Optimization 5) needs no network
      var shrinkK = math.max(kPP, ceilDensity(b))
      val open =
        if (bounded(load(c), b)) None
        else if (shrinkK == kPP) Some((cc, lists(c)))
        else {
          val keep = inCore(cc, shrinkK)
          if (bounded(lists(c).loads(Vector(keep))._2(0), b)) None
          else Some((keep.map(cc), lists(c).restrict(keep)))
        }
      open match {
        case None => byBound += 1
        case Some((cv, local)) =>
          byCut += 1
          search.on(cv, local)
          search.climb(b.density, (found, vs) =>
            // Optimization 4: locate the CDS in a higher core as ρ grows (it
            // holds vs's densest subgraph, as dense as found or denser)
            if (ceilDensity(found) <= shrinkK) vs.indices.toArray
            else { shrinkK = ceilDensity(found); inCore(vs, shrinkK) })
      }
    }
    (search.best, Stats(tCore, System.nanoTime() - t0, search.nodeCounts.result(), search.probes,
                        search.arcCounts.result(), search.phases, byBound, byCut, comps.length))
  }

}
