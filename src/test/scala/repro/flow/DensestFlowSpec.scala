package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.patterns.Pattern

class DensestFlowSpec extends AnyFunSuite {

  test("group collapses instances sharing a vertex set") {
    val inst = Array(Array(0, 1, 2, 3), Array(0, 1, 2, 3), Array(1, 2, 3, 4))
    val gs = DensestFlow.group(inst)
    assert(gs.length == 2)
    assert(gs.find(_.verts.sameElements(Array(0, 1, 2, 3))).get.mult == 2)
    assert(gs.find(_.verts.sameElements(Array(1, 2, 3, 4))).get.mult == 1)
  }

  test("ungrouped keeps every instance separate") {
    val inst = Array(Array(0, 1, 2), Array(0, 1, 2))
    assert(DensestFlow.ungrouped(inst).length == 2)
    assert(DensestFlow.ungrouped(inst).forall(_.mult == 1))
  }

  test("denserThan finds a denser-than-alpha subgraph when one exists (edge density)") {
    // K4 (density 1.5) plus a pendant: probing alpha=1 must return something
    val g = repro.graph.LocalGraph.fromEdges(
      Seq((0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L), (3L, 4L)))
    val inst = Pattern.Edge.instances(g)
    val s = new DensestFlow.Network(g.n, DensestFlow.ungrouped(inst), 2).denserThan(1.0)
    assert(s.nonEmpty)
    // the returned set must itself be denser than alpha
    val mu = inst.count(i => i.forall(s.contains))
    assert(mu.toDouble / s.length > 1.0)
  }

  test("denserThan returns empty above the optimum") {
    val g    = TestUtil.complete(4) // rho_opt = 1.5
    val inst = Pattern.Edge.instances(g)
    val s = new DensestFlow.Network(g.n, DensestFlow.ungrouped(inst), 2).denserThan(1.6)
    assert(s.isEmpty)
  }

  test("denserThan at exactly the optimum returns empty (strict inequality)") {
    val g    = TestUtil.complete(4)
    val inst = Pattern.Edge.instances(g)
    val s = new DensestFlow.Network(g.n, DensestFlow.ungrouped(inst), 2).denserThan(1.5)
    assert(s.isEmpty)
  }

  test("triangle network: K4 probe below optimum returns the K4") {
    val g    = TestUtil.complete(4) // 4 triangles / 4 vertices = 1.0
    val inst = Pattern.Triangle.instances(g)
    val s = new DensestFlow.Network(g.n, DensestFlow.ungrouped(inst), 3).denserThan(0.9)
    assert(s.sorted.sameElements(Array(0, 1, 2, 3)))
  }

  // Lemma 12: grouped (construct+) and ungrouped networks have equal min-cuts.
  for (seed <- 1 to 5; (p, nm) <- Seq((Pattern.Diamond, "diamond"), (Pattern.Star(2), "2-star"))) {
    test(s"Lemma 12 ($nm, seed=$seed): construct+ preserves the min-cut capacity") {
      val g    = TestUtil.randomGraph(9, 0.5, seed)
      val inst = p.instances(g)
      if (inst.nonEmpty) {
        val h = p.numVertices
        for (alpha <- Seq(0.3, 0.9, 1.7)) {
          def minCut(groups: Array[DensestFlow.Group]) = {
            val net = new DensestFlow.Network(g.n, groups, h)
            net.at(alpha).maxFlow(net.s, net.t)
          }
          val a = minCut(DensestFlow.ungrouped(inst))
          val b = minCut(DensestFlow.group(inst))
          assert(math.abs(a - b) < 1e-6, s"alpha=$alpha: $a vs $b")
        }
      }
    }
  }

  test("Lemma 8 pruning never changes probe outcomes") {
    for (seed <- 1 to 5) {
      val g    = TestUtil.randomGraph(10, 0.4, seed)
      val inst = Pattern.Triangle.instances(g)
      if (inst.nonEmpty) {
        val full   = DensestFlow.group(inst)
        val pruned = DensestFlow.pruneLemma8(g.n, full, 3)
        for (alpha <- Seq(0.2, 0.6, 1.1)) {
          val a = new DensestFlow.Network(g.n, full, 3).denserThan(alpha)
          val b = new DensestFlow.Network(g.n, pruned, 3).denserThan(alpha)
          // outcomes must agree on emptiness; nonempty answers must be valid
          assert(a.isEmpty == b.isEmpty, s"seed=$seed alpha=$alpha")
          if (b.nonEmpty) {
            val mu = inst.count(i => i.forall(b.contains))
            assert(mu.toDouble / b.length > alpha)
          }
        }
      }
    }
  }

  test("pruneLemma8 retains everything when nothing is prunable (clique)") {
    val inst = Pattern.Triangle.instances(TestUtil.complete(5))
    val gs   = DensestFlow.group(inst)
    assert(DensestFlow.pruneLemma8(5, gs, 3).length == gs.length)
  }

  for (seed <- 1 to 4; p <- Seq(Pattern.Triangle, Pattern.Clique(4), Pattern.Diamond, Pattern.Star(2))) {
    test(s"pruneLemma8 keeps every group when each group vertex has Ψ-degree ≥ μ/n (k_max-core, $p, seed=$seed)") {
      // the union bound gives μ − Σ_{v∈ψ} deg(v) ≤ μ − h·μ/n = (n − h)·μ/n,
      // never a denser residual: inside a (k, Ψ)-core with k ≥ ρ, as in
      // CoreExact, Lemma 8 prunes nothing
      val g      = TestUtil.randomGraph(24, 0.4, seed)
      val core   = g.induced(repro.core.CliqueCore.decompose(g, p).kMaxCoreVertices)
      val n      = core.n
      val h      = p.numVertices
      val groups = DensestFlow.group(p.instances(core))
      val deg    = new Array[Long](n)
      groups.foreach(gr => gr.verts.foreach(deg(_) += gr.mult))
      val mu     = groups.map(_.mult.toLong).sum
      assert(n > h && mu > 0)
      assert(groups.forall(_.verts.forall(v => deg(v) * n >= mu)))
      assert(DensestFlow.pruneLemma8(n, groups, h).sameElements(groups))
    }
  }

  // α goes up and down, so a reused network must not keep state between probes
  private val alphas = Seq(0.5, 2.0, 0.1, 1.3, 0.0, 3.5, 0.9, 1.3, 0.25)

  private def cut(d: Dinic, s: Int, t: Int): (Double, Seq[Boolean]) = {
    val f = d.maxFlow(s, t)
    (f, d.minCutSourceSide(s).toSeq)
  }

  for (seed <- 1 to 6; (p, nm, grouped) <- Seq((Pattern.Edge, "edge", false),
       (Pattern.Triangle, "triangle", false), (Pattern.Diamond, "grouped diamond", true))) {
    test(s"a reused network cuts like a freshly built one ($nm, seed=$seed)") {
      val g    = TestUtil.randomGraph(12, 0.45, seed)
      val inst = p.instances(g)
      val gs   = if (grouped) DensestFlow.group(inst) else DensestFlow.ungrouped(inst)
      val h    = p.numVertices
      val net  = new DensestFlow.Network(g.n, gs, h)
      for (alpha <- alphas) {
        val (d, s, t) = DensestFlow.build(g.n, gs, h, alpha)
        assert(cut(net.at(alpha), net.s, net.t) == cut(d, s, t), s"alpha=$alpha")
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"a reused network with pinned vertices cuts like a fresh one (seed=$seed)") {
      val g      = TestUtil.randomGraph(12, 0.4, seed)
      val gs     = DensestFlow.group(Pattern.Triangle.instances(g))
      val pinned = Array(seed % g.n, (seed * 5) % g.n)
      val net    = new DensestFlow.Network(g.n, gs, 3, pinned)
      for (alpha <- alphas) {
        val fresh = new DensestFlow.Network(g.n, gs, 3, pinned)
        val (f, side) = cut(net.at(alpha), net.s, net.t)
        assert((f, side) == cut(fresh.at(alpha), fresh.s, fresh.t), s"alpha=$alpha")
        assert(pinned.forall(v => side(v + 1)), s"alpha=$alpha: a pinned vertex was cut off")
        assert(side == cut(hugePins(g.n, gs, 3, pinned, alpha), 0, g.n + gs.length + 1)._2)
      }
    }
  }

  /** The same network with 1e15 on the pinned s→v arcs in place of a bound. */
  private def hugePins(nV: Int, gs: Array[DensestFlow.Group], h: Int, pinned: Array[Int],
                       alpha: Double): Dinic = {
    val t   = nV + gs.length + 1
    val d   = new Dinic(t + 1)
    val deg = new Array[Long](nV)
    gs.foreach(gr => gr.verts.foreach(deg(_) += gr.mult))
    for (v <- 0 until nV) {
      if (pinned.contains(v)) d.addEdge(0, v + 1, 1e15)
      else if (deg(v) > 0) d.addEdge(0, v + 1, deg(v).toDouble)
      d.addEdge(v + 1, t, alpha * h)
    }
    for ((gr, gi) <- gs.zipWithIndex; u <- gr.verts) {
      d.addEdge(u + 1, nV + 1 + gi, gr.mult.toDouble)
      d.addEdge(nV + 1 + gi, u + 1, gr.mult.toDouble * (h - 1))
    }
    d
  }

  private def rejects(bad: String)(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage.contains(bad), e.getMessage)
  }

  test("build and denserThan reject group vertices >= nVerts, h < 1 and bad alpha") {
    val gs = Array(DensestFlow.Group(Array(0, 1, 4), 1))
    rejects("4")(DensestFlow.build(4, gs, 3, 1.0))
    rejects("4")(new DensestFlow.Network(4, gs, 3).denserThan(1.0))
    val ok = Array(DensestFlow.Group(Array(0, 1, 2), 1))
    rejects("0")(DensestFlow.build(4, ok, 0, 1.0))
    rejects("-1.0")(DensestFlow.build(4, ok, 3, -1.0))
    rejects("NaN")(new DensestFlow.Network(4, ok, 3).denserThan(Double.NaN))
    rejects("-0.5")(new DensestFlow.Network(4, ok, 3).denserThan(-0.5))
  }
}
