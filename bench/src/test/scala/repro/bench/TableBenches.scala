package repro.bench

import repro.core._
import repro.exp.{Datasets, Harness, Tables}
import repro.patterns.Pattern

/** Table 2 (+ appendix Table 6): dataset inventory — paper vs stand-in. */
class T2DatasetsBench extends BenchBase {
  test("Table 2/6 — datasets") {
    val (out, secs) = Harness.time(Tables.datasets())
    report("table2_datasets", out + f"%n[generated in $secs%.1f s]")
    assert(out.contains("Yeast") && out.contains("UK-2002") && out.contains("Foursquare"))
  }
}

/** Table 3: % of CoreExact runtime spent in (k, Ψ)-core decomposition. */
class T3CoreDecompShareBench extends BenchBase {
  test("Table 3 — core-decomposition share of CoreExact") {
    val (out, secs) = Harness.time(Tables.coreDecompShare())
    report("table3_core_decomp_share", out + f"%n[ran in $secs%.1f s]")
    assert(out.contains("As-733") && out.contains("Ca-HepTh"))
  }

  test("shape: the share decreases as the clique grows (Ca-HepTh)") {
    // paper Table 3: 43.14% (edge) -> 0.26% (6-clique); we check monotone
    // decline between the ends, which is the claim that matters. Each share
    // is Table 3's own: the decomposition (listing and peel) over the whole
    // call, both from the `Stats` of the fastest of 5 warm CoreExact calls.
    // This stand-in builds no flow network (`probes` = 0: the load bound
    // closes its one component), so the rest of the call is the components
    // and the load pass after the peel, not max-flow.
    val g = Datasets.load("Ca-HepTh").g
    val edgeShare = Tables.decompShare(g, Pattern.Edge)
    val c5Share   = Tables.decompShare(g, Pattern.Clique(5))
    val shares    = f"edge=${edgeShare * 100}%.1f%% 5-clique=${c5Share * 100}%.1f%%"
    info(shares)
    assert(c5Share < edgeShare, s"expected declining share: $shares")
  }
}

/** Table 4: EMcore vs CoreApp (seconds), classical k_max-core. */
class T4EmcoreVsCoreAppBench extends BenchBase {
  test("Table 4 — EMcore vs CoreApp") {
    val (out, secs) = Harness.time(Tables.emcoreVsCoreApp())
    report("table4_emcore_vs_coreapp", out + f"%n[ran in $secs%.1f s]")
    assert(out.contains("EMcore") && out.contains("CoreApp"))
  }
}

/** Table 5: exact CDS/PDS densities per pattern on the four small datasets. */
class T5DensitiesBench extends BenchBase {
  test("Table 5 — densities of CDS's / PDS's") {
    val (out, secs) = Harness.time(Tables.densities())
    report("table5_densities", out + f"%n[ran in $secs%.1f s]")
    assert(out.contains("S-DBLP") && out.contains("Netscience"))
  }

  test("spot checks: planted cliques reproduce the paper's exact values") {
    // S-DBLP stand-in embeds a 13-clique, whose densities ARE the paper's
    // Table 5 row: edge 6, triangle 22, 4-cl 55, 5-cl 99, 6-cl 132.
    val sdblp = Datasets.load("S-DBLP").g
    assert(CoreExact.run(sdblp, Pattern.Edge).density >= 6.0 - 1e-9)
    assert(CoreExact.run(sdblp, Pattern.Clique(6)).density >= 132.0 - 1e-9)
    // Netscience stand-in embeds a 20-clique: 2-star rho_opt >= C(19,2)=171,
    // diamond rho_opt >= 3*C(20,4)/20 = 726.75 (paper: 171, 726.8).
    val net = Datasets.load("Netscience").g
    assert(CoreExact.run(net, Pattern.Star(2)).density >= 171.0 - 1e-9)
    assert(CoreExact.run(net, Pattern.Diamond).density >= 726.75 - 1e-9)
  }
}

/** Fig. 19 (tabular): dataset characteristics + headline speedups. */
class F19SpeedupsBench extends BenchBase {
  test("Fig. 19 — characteristics and speedups") {
    val (out, secs) = Harness.time(Tables.speedups())
    report("fig19_speedups", out + f"%n[ran in $secs%.1f s]")
    assert(out.contains("Exact/CoreExact"))
  }

  test("shape: CoreApp beats PeelApp on the planted-clique graph (Ca-HepTh)") {
    // warm, best of 3, as Fig. 19 times them: one cold call of each would
    // time JIT compilation more than the algorithms on this small stand-in
    val g = Datasets.load("Ca-HepTh").g
    val (_, tPeel) = Harness.warmBest(3)(PeelApp.run(g, Pattern.Triangle))
    val (_, tCore) = Harness.warmBest(3)(CoreApp.kMaxCore(g, Pattern.Triangle))
    assert(tCore < tPeel, f"CoreApp $tCore%.3f s vs PeelApp $tPeel%.3f s")
  }

  test("shape: CoreExact beats Exact on Netscience (triangle)") {
    val g = Datasets.load("Netscience").g
    val (r1, tExact) = Harness.time(Exact.run(g, Pattern.Triangle))
    val (r2, tCore)  = Harness.time(CoreExact.run(g, Pattern.Triangle))
    assert(math.abs(r1.density - r2.density) < 1e-6)
    assert(tCore < tExact, f"CoreExact $tCore%.3f s vs Exact $tExact%.3f s")
  }
}

/** Distributed dataflow demo: the Spark implementations agree with the local
  * ones on a stand-in graph (the paper's "future work" distributed variant).
  */
class DistributedBench extends BenchBase {
  test("distributed k-core + densest approx on Netscience stand-in") {
    val spark = repro.SparkSpec.shared
    val g     = Datasets.load("Netscience").g
    val edges = repro.data.SynthGraphs.toDF(spark, g)

    val ((kMax, core), tK) = Harness.time(repro.dist.DistKCore.kMaxCore(spark, edges))
    val dec = KCore.decompose(g)
    assert(kMax == dec.kMax.toLong)
    assert(core.count() == dec.coreVertices(dec.kMax).length.toLong)

    val (eds, tE) = Harness.time(repro.dist.DistDensest.edsApprox(spark, edges))
    val exact = CoreExact.run(g, Pattern.Edge).density
    assert(eds.density + 1e-9 >= exact / 2.2 && eds.density <= exact + 1e-9)

    report("distributed_demo",
      f"[dist] k_max=$kMax (|core|=${core.count()}) in $tK%.1f s; " +
      f"EDS approx rho=${eds.density}%.3f (exact $exact%.3f) in $tE%.1f s")
  }
}
