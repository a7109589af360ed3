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
  *  3. flow-network nodes pruned by Lemma 8, instances grouped by vertex set
  *     (construct+; skipped for cliques, which never share a vertex set);
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
    val t0        = System.nanoTime()
    val n         = g.n
    val instances = psi.instances(g)
    val dec       = CliqueCore.decomposeInstances(n, instances)
    val tCore     = System.nanoTime() - t0
    if (instances.isEmpty)
      return (Subgraph.none(g), Stats(tCore, System.nanoTime() - t0, Vector.empty, 0))

    val h    = psi.numVertices
    val core = dec.core

    // ⌈ρ(S)⌉, exactly
    def ceilDensity(s: Subgraph): Long = (s.instances + s.size - 1) / s.size

    // Pruning 1: ρ' from the residual subgraphs of the decomposition.
    var best    = dec.bestResidual
    val kPrime  = math.max(1L, ceilDensity(best))
    val kpVerts = dec.coreVertices(kPrime)

    // Pruning 2: per-component densities of the (k', Ψ)-core, one pass over Λ.
    val compsKp = g.components(kpVerts)
    locally {
      val compId = Array.fill(n)(-1)
      compsKp.iterator.zipWithIndex.foreach { case (cc, i) => cc.foreach(compId(_) = i) }
      val perComp = new Array[Long](compsKp.length)
      instances.foreach { inst =>
        val c0 = compId(inst(0))
        if (c0 >= 0) {
          var ok = true; var i = 1
          while (ok && i < inst.length) { ok = compId(inst(i)) == c0; i += 1 }
          if (ok) perComp(c0) += 1
        }
      }
      compsKp.iterator.zipWithIndex.foreach { case (cc, i) =>
        val dens = perComp(i).toDouble / cc.length
        if (dens > best.density) best = Subgraph(cc, perComp(i), dens)
      }
    }
    val kPP = math.max(kPrime, ceilDensity(best))

    // h-cliques never share a vertex set, so grouping them finds nothing
    val group: IndexedSeq[Array[Int]] => Array[DensestFlow.Group] = psi match {
      case _: Pattern.Clique => DensestFlow.ungrouped
      case _                 => DensestFlow.group
    }
    // Pruning 3: one pass gives each sorted component its own instance list
    val comps  = g.components(dec.coreVertices(kPP))
    val parts  = Densest.partition(instances, n, comps)
    val search = new DensitySearch((nv, local) => new DensestFlow.Network(
      nv, DensestFlow.pruneLemma8(nv, group(local), h), h), best)
    // positions in vs of the vertices of the (k, Ψ)-core
    def inCore(vs: Array[Int], k: Long): Array[Int] =
      java.util.stream.IntStream.range(0, vs.length).filter(i => core(vs(i)) >= k).toArray
    var byBound, byCut = 0
    comps.indices.foreach { c =>
      val cc = comps(c)
      // shrink to the (⌈ρ⌉, Ψ)-core of the best density ρ so far if it exceeds k''
      var shrinkK = math.max(kPP, ceilDensity(search.best))
      val (cv, local) =
        if (shrinkK == kPP) (cc, parts(c))
        else {
          val keep = inCore(cc, shrinkK)
          (keep.map(cc), Densest.restrict(parts(c), cc.length, keep))
        }
      val b = search.best
      if (Densest.maxDegree(local, cv.length) * b.size <= h.toLong * b.instances) byBound += 1 // Optimization 5
      else {
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
