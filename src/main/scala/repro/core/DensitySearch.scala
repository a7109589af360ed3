package repro.core

import repro.flow.DensestFlow

/** The search on the density guess α of [[Exact]] (Algorithm 1),
  * [[CoreExact]] (Algorithm 4, per component) and [[QueryDensest]] (Section
  * 6.3), on one network over `verts` (input-graph ids) reused until they
  * change. The search reads only the instances inside `verts`, renumbered to
  * positions in `verts`, in one flat store: `network(|verts|, local)` builds
  * the network from them, and a probe counts μ of its source side in them.
  * A probe at α succeeds when the min cut's source side is denser than α.
  * `best`: densest subgraph seen.
  */
private[core] final class DensitySearch(network: (Int, CliqueCore.Instances) => DensestFlow.Network,
                                        var best: Subgraph) {
  private var verts = Array.emptyIntArray
  private var local: CliqueCore.Instances = _
  private var net: DensestFlow.Network = _
  var probes = 0
  var phases = 0L
  val nodeCounts = Vector.newBuilder[Int]
  val arcCounts  = Vector.newBuilder[Long]

  /** Search on `vs` from now on, whose instances, renumbered to positions in
    * `vs`, are `local`; builds the network for them. */
  def on(vs: Array[Int], local: CliqueCore.Instances): Unit = {
    verts = vs; this.local = local; net = network(vs.length, local)
  }

  /** One min-cut probe at α: the source side, if it is denser than α. A
    * source side that is not (possible with pinned vertices) is still
    * offered to `best`. */
  private def probe(alpha: Double): Option[Subgraph] = {
    probes += 1
    nodeCounts += net.dinic.n
    arcCounts += net.dinic.arcs
    val phases0 = net.dinic.phases
    val s       = net.denserThan(alpha)
    phases += net.dinic.phases - phases0
    if (s.isEmpty) return None
    val cand = Subgraph(s.map(verts), local.countWithin(s))
    if (cand.density > best.density) best = cand
    Some(cand).filter(_.density > alpha)
  }

  /** Dinkelbach's iteration (Newton's method on the parametric min cut):
    * probe at `l0`, then at the density ρ(S) of each source side S found,
    * until a probe fails. A failed probe at α = ρ(S) proves that nothing in
    * `verts` is denser than S. With pinned vertices `l0` must not exceed the
    * optimum, so that a failed first probe offers an optimum to `best`.
    * After each success `shrink(S, verts)` gives the positions in `verts` to
    * go on with, ascending: fewer rebuild the network on their own
    * instances.
    */
  def climb(l0: Double, shrink: (Subgraph, Array[Int]) => Array[Int] = (_, vs) => vs.indices.toArray): Unit = {
    var found = probe(l0)
    while (found.nonEmpty) {
      val keep = shrink(found.get, verts)
      if (keep.length != verts.length) on(keep.map(verts), local.restrict(keep))
      found = probe(found.get.density)
    }
  }
}
