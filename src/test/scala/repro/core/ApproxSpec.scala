package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.SynthGraphs
import repro.graph.LocalGraph
import repro.patterns.Pattern

class ApproxSpec extends AnyFunSuite {

  val patterns: Seq[(Pattern, String)] = Seq(
    (Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
    (Pattern.Clique(4), "4-clique"), (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"))

  // ---- PeelApp ----

  for (seed <- 1 to 5; (p, nm) <- patterns) {
    test(s"PeelApp achieves >= 1/|V_Ψ| of the optimum (seed=$seed, Ψ=$nm)") {
      val g   = TestUtil.randomGraph(12, 0.45, seed)
      val opt = TestUtil.bruteForce(g, p).density
      val r   = PeelApp.run(g, p)
      assert(r.density + 1e-9 >= opt / p.numVertices,
        s"peel=${r.density} opt=$opt h=${p.numVertices}")
      // and never better than the optimum
      assert(r.density <= opt + 1e-9)
    }
  }

  test("PeelApp on K5 returns the whole clique") {
    val r = PeelApp.run(TestUtil.complete(5), Pattern.Edge)
    assert(r.size == 5 && math.abs(r.density - 2.0) < 1e-9)
  }

  test("PeelApp with no instances returns density 0") {
    assert(PeelApp.run(TestUtil.path(5), Pattern.Triangle).density == 0.0)
  }

  // ---- IncApp ----

  for (seed <- 1 to 5; (p, nm) <- Seq((Pattern.Triangle, "triangle"), (Pattern.Diamond, "diamond"))) {
    test(s"IncApp returns the (k_max,Ψ)-core with the ratio guarantee (seed=$seed, Ψ=$nm)") {
      val g   = TestUtil.randomGraph(12, 0.5, seed)
      val inst = p.instances(g)
      if (inst.nonEmpty) {
        val opt = TestUtil.bruteForce(g, p).density
        val r   = IncApp.run(g, p)
        assert(r.density + 1e-9 >= opt / p.numVertices)
        // the returned set must be the definitional (k_max, Ψ)-core
        val dec = CliqueCore.decomposeInstances(g.n, inst)
        assert(r.vertices.toSet == TestUtil.bruteCoreVertices(g, p, dec.kMax))
      }
    }
  }

  test("IncApp on figure5 (Ψ=edge) returns the K5, not the EDS") {
    val g = TestUtil.figure5
    val r = IncApp.run(g, Pattern.Edge)
    assert(r.externalIds(g).toSet == Set(7L, 8L, 9L, 10L, 11L))
    assert(math.abs(r.density - 2.0) < 1e-9) // < 15/7: approximation, not exact
  }

  // ---- CoreApp ----

  for (seed <- 1 to 6; (p, nm) <- Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                                       (Pattern.Clique(4), "4-clique"), (Pattern.Star(2), "2-star"),
                                       (Pattern.Diamond, "diamond"))) {
    test(s"CoreApp finds the same (k_max, core) as IncApp (seed=$seed, Ψ=$nm)") {
      val g = TestUtil.randomGraph(20, 0.35, seed)
      val dec = CliqueCore.decompose(g, p)
      val (kMax, vs, mu) = CoreApp.kMaxCore(g, p)
      assert(kMax == dec.kMax, s"kMax: $kMax vs ${dec.kMax}")
      if (dec.totalInstances > 0) {
        assert(vs.toSet == dec.kMaxCoreVertices.toSet)
        val inst = p.instances(g)
        assert(mu == Densest.countWithin(inst, g.n, vs))
      }
    }
  }

  test("CoreApp gamma bounds dominate the clique-core numbers") {
    for (seed <- 1 to 4; p <- Seq(Pattern.Triangle, Pattern.Clique(4))) {
      val g   = TestUtil.randomGraph(18, 0.4, seed)
      val gam = CoreApp.gamma(g, p)
      val dec = CliqueCore.decompose(g, p)
      (0 until g.n).foreach(v => assert(gam(v) >= dec.core(v), s"v=$v seed=$seed p=$p"))
    }
  }

  test("CoreApp on a planted clique returns the clique as k_max-core") {
    val base = SynthGraphs.powerLaw(400, 900, 2.5, 9)
    val g    = SynthGraphs.plantClique(base, 14, 9)
    val (kMax, vs, _) = CoreApp.kMaxCore(g, Pattern.Triangle)
    assert(kMax >= repro.patterns.Combinatorics.choose(13, 2)) // C(13,2)=78 triangles each
    assert(vs.length >= 14 && vs.length <= 20)
  }

  // ---- EMcore ----

  for (seed <- 1 to 5) {
    test(s"EMcore returns the classical k_max-core (seed=$seed)") {
      val g   = TestUtil.randomGraph(40, 0.25, seed)
      val dec = KCore.decompose(g)
      val (kMax, vs) = EMcore.kMaxCore(g)
      assert(kMax == dec.kMax)
      assert(vs.toSet == dec.coreVertices(dec.kMax).toSet)
    }
  }

  test("EMcore and CoreApp(edge) agree on the stand-ins") {
    val g = SynthGraphs.standIn("Netscience").g
    val (k1, v1) = EMcore.kMaxCore(g)
    val (k2, v2, _) = CoreApp.kMaxCore(g, Pattern.Edge)
    assert(k1.toLong == k2)
    assert(v1.toSet == v2.toSet)
  }

  for (seed <- 1 to 3) {
    test(s"CoreApp and EMcore grow W for 3+ rounds on a planted clique and match IncApp and KCore (seed=$seed)") {
      // G(120, 0.15) under a K22. EMcore's blocks hold 16 vertices and CoreApp
      // starts at 16; a search stops at |W| = w only if the (w+1)-th highest
      // degree is below k_max, which the assertion on deg(32) rules out for
      // w = 16 and w = 32
      val g   = SynthGraphs.plantClique(TestUtil.randomGraph(120, 0.15, seed), 22, seed)
      val dec = KCore.decompose(g)
      val deg = Array.tabulate(g.n)(g.degree).sorted(Ordering.Int.reverse)
      assert(deg(32) >= dec.kMax, s"33rd degree ${deg(32)}, k_max ${dec.kMax}")
      val (k, vs) = EMcore.kMaxCore(g)
      assert(k == dec.kMax && vs.toSet == dec.coreVertices(dec.kMax).toSet)
      for (psi <- Seq(Pattern.Edge, Pattern.Triangle)) {
        val inc         = IncApp.run(g, psi)
        val (k, vs, mu) = CoreApp.kMaxCore(g, psi)
        assert(k == CliqueCore.decompose(g, psi).kMax, s"Ψ=$psi")
        assert(vs.toSet == inc.vertices.toSet, s"Ψ=$psi")
        assert(mu == psi.count(g.induced(vs)) && mu == inc.instances, s"Ψ=$psi")
      }
    }
  }

  /** Vertices of G[W] that the second round of the top-down search drops:
    * W is the first `w1` by `bound`, the first round decomposed the first
    * `w0`, and a vertex goes when its γ in G[W] is below that round's k_max.
    */
  private def droppedInRound2(g: repro.graph.LocalGraph, psi: Pattern, bound: Array[Long],
                              w0: Int, w1: Int): Int = {
    val order = (0 until g.n).sortBy(v => -bound(v)).toArray
    val k1    = CliqueCore.decompose(g.induced(order.take(w0)), psi).kMax
    CoreApp.gamma(g.induced(order.take(w1)), psi).count(_ < k1)
  }

  for (seed <- 1 to 3) {
    test(s"pruned CoreApp and EMcore equal a full decomposition on multi-round inputs (seed=$seed)") {
      // a K16 and a K14 planted in a power-law graph: the top-16 by degree
      // hold hubs and part of the cliques, so the second round already knows
      // a k_max that some vertices of its G[W] cannot reach
      val base = SynthGraphs.powerLaw(600, 1800, 2.2, seed)
      val g    = SynthGraphs.plantClique(SynthGraphs.plantClique(base, 16, seed), 14, seed + 10)
      val deg  = Array.tabulate(g.n)(g.degree(_).toLong)
      val kc   = KCore.decompose(g)
      assert(droppedInRound2(g, Pattern.Edge, deg, 16, 32) > 0)
      assert(droppedInRound2(g, Pattern.Edge, deg, 75, 150) > 0)
      val (k, vs) = EMcore.kMaxCore(g)
      assert(k == kc.kMax && vs.toSet == kc.coreVertices(kc.kMax).toSet)
      for (psi <- Seq(Pattern.Edge, Pattern.Triangle, Pattern.Clique(4))) {
        val full        = CliqueCore.decompose(g, psi)
        val (k, vs, mu) = CoreApp.kMaxCore(g, psi)
        assert(droppedInRound2(g, psi, CoreApp.gamma(g, psi), 16, 32) > 0, s"Ψ=$psi")
        assert(k == full.kMax, s"Ψ=$psi")
        assert(vs.toSet == full.kMaxCoreVertices.toSet, s"Ψ=$psi")
        assert(mu == Densest.countWithin(psi.instances(g), g.n, vs), s"Ψ=$psi")
      }
    }
  }

  // ---- NucleusAND as an approximation algorithm ----

  test("NucleusAND.run returns the same core as IncApp") {
    for (seed <- 1 to 3) {
      val g = TestUtil.randomGraph(15, 0.45, seed)
      val a = NucleusAND.run(g, Pattern.Triangle)
      val b = IncApp.run(g, Pattern.Triangle)
      assert(a.vertices.toSet == b.vertices.toSet, s"seed=$seed")
      assert(math.abs(a.density - b.density) < 1e-9)
    }
  }

  // ---- cross-algorithm ordering (the paper's accuracy story) ----

  test("approximation ratios: exact >= PeelApp, exact >= IncApp, all >= 1/h") {
    for (seed <- 1 to 4) {
      val g   = TestUtil.randomGraph(14, 0.4, seed)
      val psi = Pattern.Triangle
      if (psi.count(g) > 0) {
        val opt  = CoreExact.run(g, psi).density
        val peel = PeelApp.run(g, psi).density
        val inc  = IncApp.run(g, psi).density
        assert(peel <= opt + 1e-9 && inc <= opt + 1e-9)
        assert(peel + 1e-9 >= opt / 3 && inc + 1e-9 >= opt / 3)
      }
    }
  }

  // ---- the flat store against the array path ----

  for (seed <- 1 to 4; (p, nm) <- patterns) {
    test(s"IncApp and NucleusAND.run equal the array path (seed=$seed, Ψ=$nm)") {
      val g    = TestUtil.randomGraph(18, 0.4, seed)
      val inst = p.instances(g)
      assert(inst.nonEmpty)
      val ref  = Densest.subgraphOf(inst, g.n, CliqueCore.decomposeInstances(g.n, inst).kMaxCoreVertices)
      for ((algo, r) <- Seq(("IncApp", IncApp.run(g, p)), ("NucleusAND", NucleusAND.run(g, p)))) {
        assert(r.vertices.toSeq == ref.vertices.toSeq, algo)
        assert(r.instances == ref.instances && r.density == ref.density, algo)
      }
    }
  }

  // ---- stars and the diamond: the Appendix-D peels against the store ----

  for (psi <- Seq(Pattern.Star(2), Pattern.Star(3), Pattern.Diamond);
       (name, g) <- (1 to 3).map(seed => s"G(30, 0.3) seed $seed" -> TestUtil.randomGraph(30, 0.3, seed)) ++
                    Seq("two hubs, 20 leaves" -> TestUtil.twoHubs(20))) {
    test(s"PeelApp and IncApp equal the store route (Ψ=${psi.name}, $name)") {
      val inst = psi.instances(g)
      val ref  = CliqueCore.decomposeInstances(g.n, inst)
      assert(ref.totalInstances > 0)
      val peel = PeelApp.run(g, psi)
      assert(peel.vertices.toSeq == ref.bestResidualVertices.toSeq && peel.instances == ref.bestInstances)
      val inc  = IncApp.run(g, psi)
      assert(inc.vertices.toSeq == ref.kMaxCoreVertices.toSeq)
      assert(inc.instances == ref.kMaxInstances && inc.instances == Densest.countWithin(inst, g.n, inc.vertices))
    }
  }

  // ---- edges: the closed-form peel against the store ----

  private val edgeInputs: Seq[(String, () => LocalGraph)] =
    (1 to 3).map(seed => s"G(30, 0.3) seed $seed" -> (() => TestUtil.randomGraph(30, 0.3, seed))) ++ Seq(
      "two hubs, 20 leaves"              -> (() => TestUtil.twoHubs(20)),
      "K12 planted in G(60, 0.1)"        -> (() => SynthGraphs.plantClique(TestUtil.randomGraph(60, 0.1, 4), 12, 4)),
      "a triangle and isolated vertices" -> (() => LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L)), 0L until 6L)),
      "one edge"                         -> (() => LocalGraph.fromEdges(Seq((0L, 1L)))),
      "the empty graph"                  -> (() => LocalGraph.fromEdges(Nil)))

  for ((name, graph) <- edgeInputs) {
    test(s"PeelApp, IncApp, CoreApp and EMcore with Ψ = edge equal the store route ($name)") {
      val g    = graph()
      val psi  = Pattern.Edge
      val ref  = CliqueCore.decomposeInstances(g.n, psi.instances(g))
      val peel = PeelApp.run(g, psi)
      val inc  = IncApp.run(g, psi)
      if (ref.totalInstances == 0) {
        val none = Subgraph.none(g)
        for (r <- Seq(peel, inc)) assert(r.vertices.toSeq == none.vertices.toSeq && r.instances == 0)
      } else {
        assert(peel.vertices.toSeq == ref.bestResidualVertices.toSeq && peel.instances == ref.bestInstances)
        assert(inc.vertices.toSeq == ref.kMaxCoreVertices.toSeq && inc.instances == ref.kMaxInstances)
      }
      val (k, vs, mu) = CoreApp.kMaxCore(g, psi)
      assert(k == ref.kMax && vs.sorted.toSeq == ref.kMaxCoreVertices.toSeq)
      assert(mu == ref.kMaxInstances && mu == g.induced(vs).m)
      // EMcore returns no μ: its search, the degree bound grown in blocks, does
      val block        = math.max(16, g.n / 8)
      val (ke, ve)     = EMcore.kMaxCore(g)
      val (kt, vt, mt) = CoreApp.topDown(g, psi, psi.degrees(g), block, _ + block)
      assert(ke == ref.kMax && ve.sorted.toSeq == ref.kMaxCoreVertices.toSeq)
      assert(kt == ke && vt.toSeq == ve.toSeq)
      assert(mt == ref.kMaxInstances && mt == g.induced(ve).m)
    }
  }

  test("PeelApp and IncApp report the exact 8-star μ of K_{1,887}, too many to list; K_{1,888} and two hubs are refused") {
    // C(887, 8) = 9,207,044,098,280,898,870 < Long.MaxValue < C(888, 8)
    val psi = Pattern.Star(8)
    val mu  = (1 to 8).foldLeft(BigInt(1))((c, i) => c * (879 + i) / i)
    val g   = TestUtil.star(887)
    assert(BigInt(psi.count(g)) == mu && psi.count(g) == 9207044098280898870L)
    for (r <- Seq(PeelApp.run(g, psi), IncApp.run(g, psi)))
      assert(r.instances == psi.count(g) && r.size == g.n)
    def refused(f: => Any): Unit = TestUtil.refused("8-star")(f)
    val over = TestUtil.star(888)
    refused(psi.count(over))
    refused(psi.degrees(over))
    refused(repro.patterns.SpecialCores.decompose(over, psi))
    refused(PeelApp.run(over, psi))
    refused(IncApp.run(over, psi))
    refused(CoreApp.kMaxCore(over, psi))
    // C(901, 8) stars centered on each hub: PeelApp used to return the whole
    // graph with μ = Long.MaxValue
    refused(PeelApp.run(TestUtil.twoHubs(900), psi))
  }

  test("CoreApp orders vertices as a stable sort by bound descending, saturated bounds first") {
    val rnd = new scala.util.Random(3)
    for (n <- Seq(0, 1, 7, 200)) {
      val bound = Array.fill(n)(rnd.nextInt(6) match {
        case 0 => Long.MaxValue
        case 1 => 0L
        case k => k.toLong * 1000000007L
      })
      assert(CoreApp.byBoundDescending(bound).toSeq == (0 until n).sortBy(v => -bound(v)), s"n=$n")
    }
  }
}
