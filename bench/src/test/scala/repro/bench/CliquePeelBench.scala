package repro.bench

import repro.TestUtil
import repro.core._
import repro.data.SynthGraphs
import repro.exp.Harness
import repro.patterns.{Pattern, SpecialCores}

/** The approximations' clique peel counts the cliques through each removed
  * vertex without listing them and keeps no instance store, so it finishes
  * on inputs whose instances do not fit the heap; it must also give every
  * result field of the store peel.
  * Minutes long, hence a bench and not a unit test.
  */
class CliquePeelBench extends BenchBase {

  test("PeelApp and CoreApp finish with Ψ = 4-clique on R-MAT@0.4 (1.3 billion 4-cliques), and agree on k_max") {
    // the store peel needs about 33 bytes per 4-clique here, over 40 GB
    val g   = SynthGraphs.standIn("R-MAT", 0.4).g
    val psi = Pattern.Clique(4)
    val (dec, tDec)          = Harness.time(SpecialCores.decompose(g, psi))
    val (peel, tPeel)        = Harness.time(PeelApp.run(g, psi))
    val ((k, core, mu), tCa) = Harness.time(CoreApp.kMaxCore(g, psi))
    assert(peel.vertices.toSeq == dec.bestResidualVertices.toSeq && peel.instances == dec.bestInstances)
    assert(k == dec.kMax && core.toSeq == dec.kMaxCoreVertices.toSeq && mu == dec.kMaxInstances)
    report("clique_peel_rmat04",
      f"R-MAT@0.4 (n=${g.n}, m=${g.m}), 4-clique, max heap ${Runtime.getRuntime.maxMemory >> 20} MB: " +
      f"mu=${dec.totalInstances}, k_max=$k, |core|=${core.length}; decomposition $tDec%.1f s, " +
      f"PeelApp $tPeel%.1f s, CoreApp $tCa%.1f s")
  }

  for ((name, scale, seed, h) <- Seq(("R-MAT", 0.04, 11L, 4), ("R-MAT", 0.04, 16L, 3), ("R-MAT", 0.04, 112L, 3),
                                     ("Enwiki-2017", 0.001, 16L, 3), ("Enwiki-2017", 0.001, 112L, 3))) {
    test(s"$h-clique peel that counts equals the store peel on every Result field ($name@$scale, seed $seed)") {
      val g = SynthGraphs.standIn(name, scale, seed).g
      assert(TestUtil.peelFields(SpecialCores.decompose(g, Pattern.Clique(h))) ==
               TestUtil.peelFields(CliqueCore.decompose(g, Pattern.Clique(h))))
    }
  }
}
