package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.patterns.Pattern

class CliqueCoreSpec extends AnyFunSuite {

  test("K4 with Ψ=triangle: all clique-core numbers are 3 (paper Example 3)") {
    val dec = CliqueCore.decompose(TestUtil.complete(4), Pattern.Triangle)
    assert(dec.core.forall(_ == 3))
    assert(dec.kMax == 3)
  }

  test("triangle graph with Ψ=triangle: core numbers 1") {
    val dec = CliqueCore.decompose(TestUtil.cycle(3), Pattern.Triangle)
    assert(dec.core.forall(_ == 1))
  }

  test("path with Ψ=triangle: all zero") {
    val dec = CliqueCore.decompose(TestUtil.path(5), Pattern.Triangle)
    assert(dec.core.forall(_ == 0))
    assert(dec.totalInstances == 0)
  }

  test("Ψ=edge reduces to classical k-core numbers") {
    for (seed <- 1 to 5) {
      val g = TestUtil.randomGraph(25, 0.3, seed)
      val a = CliqueCore.decompose(g, Pattern.Edge).core.map(_.toInt).toSeq
      val b = KCore.decompose(g).core.toSeq
      assert(a == b, s"seed=$seed")
    }
  }

  test("core number never exceeds clique-degree (property 3)") {
    val g   = TestUtil.randomGraph(20, 0.4, 3)
    val deg = Pattern.Triangle.degrees(g)
    val dec = CliqueCore.decompose(g, Pattern.Triangle)
    (0 until g.n).foreach(v => assert(dec.core(v) <= deg(v)))
  }

  for (seed <- 1 to 6; (p, nm) <- Seq((Pattern.Triangle, "triangle"), (Pattern.Clique(4), "4-clique"),
                                       (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"))) {
    test(s"($nm, seed=$seed) every (k,Ψ)-core matches the definitional fixpoint") {
      val g   = TestUtil.randomGraph(13, 0.45, seed)
      val dec = CliqueCore.decompose(g, p)
      for (k <- 0L to math.min(dec.kMax + 1, 12L))
        assert(dec.coreVertices(k).toSet == TestUtil.bruteCoreVertices(g, p, k),
               s"k=$k kMax=${dec.kMax}")
    }
  }

  test("(k,Ψ)-cores are nested") {
    val g   = TestUtil.randomGraph(20, 0.4, 8)
    val dec = CliqueCore.decompose(g, Pattern.Triangle)
    for (k <- 1L to dec.kMax)
      assert(dec.coreVertices(k).toSet.subsetOf(dec.coreVertices(k - 1).toSet))
  }

  test("Theorem 1: density of every (k,Ψ)-core lies in [k/|V_Ψ|, k_max]") {
    for (seed <- 1 to 5) {
      val g    = TestUtil.randomGraph(18, 0.4, seed)
      val psi  = Pattern.Triangle
      val inst = psi.instances(g)
      val dec  = CliqueCore.decomposeInstances(g.n, inst)
      if (dec.totalInstances > 0) {
        for (k <- 1L to dec.kMax) {
          val vs = dec.coreVertices(k)
          if (vs.nonEmpty) {
            val rho = Densest.countWithin(inst, g.n, vs).toDouble / vs.length
            assert(rho >= k.toDouble / psi.numVertices - 1e-9, s"k=$k lower")
            assert(rho <= dec.kMax + 1e-9, s"k=$k upper")
          }
        }
      }
    }
  }

  test("bestDensity matches the best residual density (PeelApp invariant)") {
    val g    = TestUtil.randomGraph(16, 0.45, 4)
    val psi  = Pattern.Triangle
    val inst = psi.instances(g)
    val dec  = CliqueCore.decomposeInstances(g.n, inst)
    val s    = dec.bestResidualVertices
    val mu   = Densest.countWithin(inst, g.n, s)
    assert(dec.bestInstances == mu)
    assert(math.abs(mu.toDouble / s.length - dec.bestDensity) < 1e-9)
    // bestDensity is a lower bound on rho_opt and at least the graph density
    assert(dec.bestDensity + 1e-9 >= dec.totalInstances.toDouble / g.n)
  }

  test("NucleusAND computes identical clique-core numbers") {
    for (seed <- 1 to 6; p <- Seq(Pattern.Triangle, Pattern.Clique(4), Pattern.Edge)) {
      val g = TestUtil.randomGraph(16, 0.4, seed)
      val a = CliqueCore.decompose(g, p).core.toSeq
      val b = NucleusAND.coreNumbers(g, p).toSeq
      assert(a == b, s"seed=$seed psi=$p")
    }
  }

  test("NucleusAND h-index helper") {
    assert(NucleusAND.hIndex(Array(3L, 3L, 3L)) == 3)
    assert(NucleusAND.hIndex(Array(5L, 1L)) == 1)
    assert(NucleusAND.hIndex(Array.empty[Long]) == 0)
    assert(NucleusAND.hIndex(Array(10L, 9L, 8L, 2L)) == 3)
  }

  test("decomposition of empty graph") {
    val dec = CliqueCore.decomposeInstances(0, Array.empty)
    assert(dec.core.isEmpty && dec.kMax == 0)
  }

  test("figure5 (Ψ=edge): kMax=4 and the 4-core is the K5") {
    val g   = TestUtil.figure5
    val dec = CliqueCore.decompose(g, Pattern.Edge)
    assert(dec.kMax == 4)
    assert(dec.kMaxCoreVertices.map(g.ids).toSet == Set(7L, 8L, 9L, 10L, 11L))
    // Pruning-1 bound from Example 5: rho' >= 25/12
    assert(dec.bestDensity >= 25.0 / 12 - 1e-9)
  }

  for (seed <- 1 to 6; (p, nm) <- Seq((Pattern.Triangle, "triangle"), (Pattern.Clique(4), "4-clique"),
                                       (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"))) {
    test(s"($nm, seed=$seed) peel equals the (degree, id) reference peel exactly") {
      val g    = TestUtil.randomGraph(14, 0.45, seed)
      val inst = p.instances(g)
      val dec  = CliqueCore.decomposeInstances(g.n, inst)
      val ref  = TestUtil.referencePeel(g.n, inst)
      assert(dec.core.toSeq == ref.core.toSeq)
      assert(dec.order.toSeq == ref.order.toSeq)
      assert(dec.bestSuffix == ref.bestSuffix)
      assert(dec.bestDensity == ref.bestDensity)
      assert(dec.bestInstances == ref.bestInstances)
      assert(ref.bestInstances == Densest.countWithin(inst, g.n, ref.bestResidualVertices))
      assert(dec.totalInstances == ref.totalInstances)
    }
  }

  // one removal lowers each touched vertex once, by all it shared with the
  // removed vertex: inputs where that is many instances at once
  for ((g, p, nm) <- Seq((TestUtil.complete(12), Pattern.Clique(4), "K12, 4-clique"),
                         (TestUtil.complete(12), Pattern.Clique(5), "K12, 5-clique"),
                         (TestUtil.twoHubs(40), Pattern.Triangle, "two hubs, triangle"),
                         (TestUtil.twoHubs(40), Pattern.Clique(4), "two hubs, 4-clique"))) {
    test(s"batched peel equals the reference peel where one removal hits a vertex many times ($nm)") {
      val inst = p.instances(g)
      val ref  = TestUtil.referencePeel(g.n, inst)
      assert(TestUtil.maxHits(ref.order, inst) > 1)
      assert(TestUtil.peelFields(CliqueCore.decomposeInstances(g.n, inst)) == TestUtil.peelFields(ref))
      assert(TestUtil.peelFields(CliqueCore.decompose(g, p)) == TestUtil.peelFields(ref))
    }
  }

  test("decomposeInstances rejects a negative vertex count") {
    val e = intercept[IllegalArgumentException](CliqueCore.decomposeInstances(-1, Array.empty))
    assert(e.getMessage.contains("-1"))
  }

  test("decomposeInstances rejects vertex ids outside [0, n)") {
    val high = intercept[IllegalArgumentException](
      CliqueCore.decomposeInstances(4, Array(Array(0, 1, 2), Array(1, 2, 4))))
    assert(high.getMessage.contains("vertex 4") && high.getMessage.contains("instance 1"))
    val low = intercept[IllegalArgumentException](CliqueCore.decomposeInstances(4, Array(Array(-3, 1))))
    assert(low.getMessage.contains("vertex -3"))
    intercept[IllegalArgumentException](CliqueCore.decomposeInstances(0, Array(Array(0))))
  }

  test("decomposeInstances rejects a jagged instance list by name") {
    val e = intercept[IllegalArgumentException](
      CliqueCore.decomposeInstances(5, Array(Array(0, 1, 2), Array(1, 2, 3), Array(3, 4))))
    assert(e.getMessage.contains("instance 2") && e.getMessage.contains("2 vertices"))
  }

  for (seed <- 1 to 4; p <- Seq(Pattern.Edge, Pattern.Triangle, Pattern.Clique(4), Pattern.Star(2),
                                Pattern.Diamond, Pattern.TwoTriangle)) {
    test(s"flat decompose equals decomposeInstances over the instance arrays ($p, seed=$seed)") {
      val g = TestUtil.randomGraph(30, 0.3, seed)
      val a = CliqueCore.decompose(g, p)
      val b = CliqueCore.decomposeInstances(g.n, p.instances(g))
      assert(a.core.toSeq == b.core.toSeq)
      assert(a.order.toSeq == b.order.toSeq)
      assert(a.totalInstances == b.totalInstances && a.totalInstances > 0)
      assert(a.bestInstances == b.bestInstances)
      assert(a.bestSuffix == b.bestSuffix)
    }
  }

  test("flat decompose equals decomposeInstances where the store grows (K20, triangle and 4-clique)") {
    val g = TestUtil.complete(20)
    for (p <- Seq(Pattern.Triangle, Pattern.Clique(4))) {
      val a = CliqueCore.decompose(g, p)
      val b = CliqueCore.decomposeInstances(g.n, p.instances(g))
      assert(a.totalInstances == p.count(g) && a.totalInstances > 1024)
      assert(a.core.toSeq == b.core.toSeq && a.order.toSeq == b.order.toSeq)
      assert(a.bestInstances == b.bestInstances && a.bestSuffix == b.bestSuffix)
    }
  }

  test("decomposeInstances rejects an instance that repeats a vertex") {
    val e = intercept[IllegalArgumentException](
      CliqueCore.decomposeInstances(5, Array(Array(0, 1, 2), Array(3, 1, 3))))
    assert(e.getMessage.contains("vertex 3") && e.getMessage.contains("instance 1"))
  }

  test("decomposeInstances counts an instance listed out of order as its sorted copy") {
    val g    = TestUtil.randomGraph(14, 0.45, 2)
    val inst = Pattern.Clique(4).instances(g)
    assert(TestUtil.peelFields(CliqueCore.decomposeInstances(g.n, inst.map(_.reverse))) ==
           TestUtil.peelFields(CliqueCore.decomposeInstances(g.n, inst)))
  }

  private val storePatterns = Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                                  (Pattern.Clique(4), "4-clique"), (Pattern.Diamond, "diamond"),
                                  (Pattern.Star(2), "2-star"))

  /** Disjoint sorted parts of 0 until n: two random slices, an empty part, a
    * singleton (no instance fits it), and some vertices in no part. */
  private def randomParts(n: Int, seed: Int): IndexedSeq[Array[Int]] = {
    val order = new scala.util.Random(seed).shuffle((0 until n).toVector).toArray
    Vector(order.slice(0, n / 2).sorted, Array.emptyIntArray, order.slice(n / 2, n - 5).sorted,
           Array(order(n - 5)))
  }

  for (seed <- 1 to 5; (p, nm) <- storePatterns) {
    test(s"per-part μ and largest load equal a per-vertex count (Ψ=$nm, seed=$seed)") {
      val g     = TestUtil.randomGraph(24, 0.45, seed)
      val inst  = p.instances(g)
      val parts = randomParts(g.n, seed)
      val (mu, load) = CliqueCore.instancesOf(g, p).loads(parts)
      assert(mu.length == parts.length && load.length == parts.length)
      parts.indices.foreach { i =>
        val in     = parts(i).toSet
        val inside = inst.filter(_.forall(in))
        val loads  = parts(i).map(v => inside.count(_.contains(v)).toLong)
        assert(mu(i) == inside.length, s"part $i μ")
        assert(load(i) == (if (loads.isEmpty) 0L else loads.max), s"part $i load")
      }
      assert(mu.sum > 0 && mu(1) == 0 && mu(3) == 0 && load(3) == 0)
      // one part holding every vertex: μ(G) and the largest Ψ-degree
      val (all, maxDeg) = CliqueCore.instancesOf(g, p).loads(Vector(Array.range(0, g.n)))
      assert(all(0) == inst.length && maxDeg(0) == p.degrees(g).max)
    }
  }

  for (seed <- 1 to 3; (p, nm) <- storePatterns) {
    test(s"store restrict and partition equal the array path, instance for instance (Ψ=$nm, seed=$seed)") {
      val g     = TestUtil.randomGraph(24, 0.45, seed)
      val inst  = p.instances(g)
      val store = CliqueCore.instancesOf(g, p)
      val parts = randomParts(g.n, seed)
      val flat  = CliqueCore.flatten(g.n, inst)
      def seqs(s: CliqueCore.Instances) = s.toArrays.toSeq.map(_.toSeq)
      parts.foreach { vs =>
        val pos   = Array.fill(g.n)(-1)
        vs.indices.foreach(i => pos(vs(i)) = i)
        val naive = inst.toSeq.filter(_.forall(pos(_) >= 0)).map(_.map(pos).sorted.toSeq)
        assert(seqs(store.restrict(vs)) == naive)
        assert(seqs(store.restrict(vs)) == seqs(flat.restrict(vs)))
      }
      assert(store.partition(parts).map(seqs).toSeq == parts.map(vs => seqs(flat.restrict(vs))))
    }
  }

  test("loads rejects overlapping parts and vertices outside [0, n)") {
    val store = CliqueCore.instancesOf(TestUtil.complete(4), Pattern.Triangle)
    val e1 = intercept[IllegalArgumentException](store.loads(Vector(Array(0, 1), Array(1, 2))))
    assert(e1.getMessage.contains("vertex 1"), e1.getMessage)
    val e2 = intercept[IllegalArgumentException](store.loads(Vector(Array(4))))
    assert(e2.getMessage.contains("4"), e2.getMessage)
  }

  private val namedPatterns = Seq(Pattern.Edge, Pattern.Triangle, Pattern.Clique(4), Pattern.Star(2),
                                  Pattern.Star(3), Pattern.Diamond, Pattern.TwoTriangle, Pattern.Path4,
                                  Pattern.TailedTriangle)

  for (p <- namedPatterns) {
    test(s"instancesOf equals the flat copy of instances, element for element (Ψ=${p.name})") {
      for (g <- Seq(TestUtil.randomGraph(14, 0.45, 3), TestUtil.path(3))) {
        val store = CliqueCore.instancesOf(g, p)
        val flat  = CliqueCore.flatten(g.n, p.instances(g))
        assert(store.h == p.numVertices && store.count == flat.count)
        assert(store.data.sameElements(flat.data))
      }
    }

    test(s"instancesOf equals the flat copy of instances, element for element (Ψ=generic-${p.name})") {
      for (g <- Seq(TestUtil.randomGraph(14, 0.45, 3), TestUtil.path(3))) {
        val inst = TestUtil.generic(p)(g)
        val flat = CliqueCore.flatten(g.n, inst)
        // an empty list has no instance to take h from
        assert(flat.h == (if (inst.isEmpty) 0 else p.numVertices) && flat.count == inst.length)
        assert(flat.data.sameElements(inst.flatMap(_.toSeq)))
      }
    }
  }

  for (p <- namedPatterns; seed <- 1 to 3) {
    test(s"the peel's μ is the recount of its densest residual, the first densest suffix (Ψ=${p.name}, seed=$seed)") {
      val g    = TestUtil.randomGraph(14, 0.45, seed)
      val n    = g.n
      val inst = p.instances(g)
      val dec  = CliqueCore.decompose(g, p)
      assert(dec.bestInstances == Densest.countWithin(inst, n, dec.bestResidualVertices))
      // suffix i is denser than suffix j iff mu(i)·(n − j) > mu(j)·(n − i)
      val mu    = (0 until n).map(i => Densest.countWithin(inst, n, dec.order.drop(i)))
      val first = (0 until n).foldLeft(0)((b, i) => if (mu(i) * (n - b) > mu(b) * (n - i)) i else b)
      assert(mu(0) == dec.totalInstances && mu(0) > 0)
      assert(dec.bestSuffix == first)
    }
  }

  /** Each vertex's instances in a store, counted from its data. */
  private def recount(s: CliqueCore.Instances): Seq[Int] = {
    val c = new Array[Int](s.n)
    s.data.foreach(c(_) += 1)
    c.toSeq
  }

  for (p <- namedPatterns; generic <- Seq(false, true)) {
    test(s"every store records its vertex range and the degrees a recount gives (Ψ=${if (generic) "generic-" else ""}${p.name})") {
      for (g <- Seq(TestUtil.randomGraph(14, 0.45, 3), TestUtil.path(3))) {
        val inst   = if (generic) TestUtil.generic(p)(g) else p.instances(g)
        val naive  = (0 until g.n).map(v => inst.count(_.contains(v)))
        val parts  = Vector(Array(0, 2), Array.range(3, g.n))
        val stores = Seq((CliqueCore.flatten(g.n, inst), "flatten")) ++
                     (if (generic) Nil else Seq((CliqueCore.instancesOf(g, p), "listing")))
        for ((s, what) <- stores) {
          assert(s.n == g.n && s.degrees.toSeq == naive && recount(s) == naive, what)
          s.partition(parts).zip(parts).foreach { case (q, vs) =>
            assert(q.n == vs.length && q.degrees.toSeq == recount(q), s"$what: partition")
          }
          val r = s.restrict(parts(1))
          assert(r.n == parts(1).length && r.degrees.toSeq == recount(r), s"$what: restrict")
        }
      }
    }
  }
}
