package dsbench

import repro.core.{CliqueCore, KCore}
import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.SpecialCores

/** Layer probes of the traced run: direct calls into the graph, enum, peel
  * and flow layers on the workload's own inputs and cells, each timed alone.
  */
object Probes {

  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** `traced` supplies the CoreExact densities the flow probe cuts at. */
  def run(w: Workload, in: Map[String, EdgeList], traced: Seq[Answer]): Map[String, Double] = {
    var buildS, graphMb = 0.0
    val graphs = w.inputs.map { i =>
      val ((g, s), mb) = Jvm.retainedMb(timed(LocalGraph.fromEdges(in(i.label).edges)))
      buildS += s; graphMb += mb
      i.label -> g
    }.toMap
    val inputEdges = in.values.map(_.m).sum

    var enumS, enumMb, peelS, flowBuildS, flowS = 0.0
    var instances, kMax, coreSize, nodes, arcs  = 0L
    graphs.values.foreach(g => peelS += timed(KCore.decompose(g))._2)
    w.closedFormPeels.foreach(i => peelS += timed(SpecialCores.decomposeDiamond(graphs(i)))._2)
    w.cells.zipWithIndex.foreach { case ((input, psi), i) =>
      val g = graphs(input)
      val ((inst, es), mb) = Jvm.retainedMb(timed(psi.instances(g)))
      enumS += es; enumMb += mb; instances += inst.length
      val (dec, ps) = timed(CliqueCore.decomposeInstances(g.n, inst))
      peelS += ps
      if (i == 0) { kMax = dec.kMax; coreSize = dec.kMaxCoreVertices.length }

      traced.find(a => a.algo == "CoreExact" && a.input == input && a.psi == psi).foreach { a =>
        val core = dec.kMaxCoreVertices
        val sub  = restrict(inst, g.n, core)
        val h    = psi.numVertices
        val (groups, gs) = timed(DensestFlow.pruneLemma8(core.length, DensestFlow.group(sub), h))
        val ((net, s, t), bs) = timed(DensestFlow.build(core.length, groups, h, a.result.density))
        flowS += timed { net.maxFlow(s, t); net.minCutSourceSide(s) }._2
        flowBuildS += gs + bs
        nodes += core.length + groups.length + 2
        arcs += arcsOf(core.length, groups, h)
      }
    }
    Map(
      "graph.build_s"      -> buildS,
      "graph.edges_per_s"  -> inputEdges / buildS,
      "graph.retained_mb"  -> graphMb,
      "enum.s"             -> enumS,
      "enum.instances"     -> instances.toDouble,
      "enum.retained_mb"   -> enumMb,
      "peel.s"             -> peelS,
      "peel.kmax"          -> kMax.toDouble,
      "peel.core_size"     -> coreSize.toDouble,
      "flow.build_s"       -> flowBuildS,
      "flow.maxflow_s"     -> flowS,
      "flow.network_nodes" -> nodes.toDouble,
      "flow.network_arcs"  -> arcs.toDouble)
  }

  /** Instances inside `vs`, renumbered to positions in `vs`. */
  private def restrict(inst: Array[Array[Int]], n: Int, vs: Array[Int]): Array[Array[Int]] = {
    val pos = Array.fill(n)(-1)
    vs.indices.foreach(i => pos(vs(i)) = i)
    inst.filter(_.forall(pos(_) >= 0)).map(_.map(pos).sorted)
  }

  /** Arcs `DensestFlow.build` adds, computed from the groups: s→v for each
    * vertex in a group, v→t for every vertex, and two per group member.
    */
  private def arcsOf(nVerts: Int, groups: Array[DensestFlow.Group], h: Int): Long = {
    val used = new Array[Boolean](nVerts)
    groups.foreach(_.verts.foreach(used(_) = true))
    used.count(identity) + nVerts + 2L * h * groups.length
  }
}
