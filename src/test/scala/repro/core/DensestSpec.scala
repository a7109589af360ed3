package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.patterns.Pattern
import scala.util.Random

class DensestSpec extends AnyFunSuite {

  /** Reference restriction: instances inside `vs`, renumbered to positions
    * in `vs` and sorted, in input order. */
  private def naiveRestrict(inst: Array[Array[Int]], n: Int, vs: Array[Int]): Seq[Seq[Int]] = {
    val pos = Array.fill(n)(-1)
    vs.indices.foreach(i => pos(vs(i)) = i)
    inst.toSeq.filter(_.forall(pos(_) >= 0)).map(_.map(pos).sorted.toSeq)
  }

  private def seqs(s: CliqueCore.Instances): Seq[Seq[Int]] = s.toArrays.toSeq.map(_.toSeq)

  private val patterns = Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                             (Pattern.Clique(4), "4-clique"), (Pattern.Diamond, "diamond"))

  for (seed <- 1 to 6; (p, nm) <- patterns) {
    test(s"partition equals a per-part restrict (Ψ=$nm, seed=$seed)") {
      val g    = TestUtil.randomGraph(30, 0.5, seed)
      val inst = p.instances(g)
      // three disjoint parts, some vertices in none; the first two unsorted
      val rnd   = new Random(seed)
      val order = rnd.shuffle((0 until g.n).toVector).toArray
      val parts = Vector(order.slice(0, 14), order.slice(14, 22), order.slice(22, 27).sorted)
      // renumbering to positions in an unsorted part leaves some instances out of order
      val pos0 = Array.fill(g.n)(-1)
      parts(0).indices.foreach(i => pos0(parts(0)(i)) = i)
      assert(inst.exists { a => a.forall(pos0(_) >= 0) && { val r = a.map(pos0); !r.sameElements(r.sorted) } })
      val store = CliqueCore.flatten(g.n, inst)
      val got   = store.partition(parts)
      assert(got.length == parts.length)
      parts.indices.foreach { i =>
        assert(seqs(got(i)) == naiveRestrict(inst, g.n, parts(i)), s"part $i")
        assert(seqs(got(i)) == seqs(store.restrict(parts(i))), s"part $i vs restrict")
      }
      // every instance inside one part lands in that part, and nowhere else
      assert(got.map(_.count).sum == parts.map(naiveRestrict(inst, g.n, _).size).sum)
    }
  }

  test("partition of one part holding every vertex in order returns each instance sorted") {
    val g    = TestUtil.randomGraph(20, 0.5, 3)
    val inst = Pattern.Diamond.instances(g)
    val got  = CliqueCore.flatten(g.n, inst).partition(Vector((0 until g.n).toArray))(0)
    assert(seqs(got) == inst.toSeq.map(_.sorted.toSeq))
  }

  test("partition rejects overlapping parts and vertices outside [0, n)") {
    val store = CliqueCore.flatten(4, Array(Array(0, 1)))
    val e1 = intercept[IllegalArgumentException](store.partition(Vector(Array(0, 1), Array(2, 1))))
    assert(e1.getMessage.contains("vertex 1"), e1.getMessage)
    val e2 = intercept[IllegalArgumentException](store.partition(Vector(Array(0, 4))))
    assert(e2.getMessage.contains("4"), e2.getMessage)
    val e3 = intercept[IllegalArgumentException](store.restrict(Array(-1)))
    assert(e3.getMessage.contains("-1"), e3.getMessage)
  }

  test("partition with no parts, or empty parts, keeps no instance") {
    val g    = TestUtil.complete(5)
    val store = CliqueCore.flatten(g.n, Pattern.Triangle.instances(g))
    assert(store.partition(Vector()).isEmpty)
    assert(store.partition(Vector(Array.emptyIntArray, Array(0, 1)))(0).count == 0)
  }

  test("countWithin counts the instances inside a vertex set") {
    val g    = TestUtil.complete(6)
    val inst = Pattern.Triangle.instances(g)
    assert(Densest.countWithin(inst, g.n, Array(0, 2, 4, 5)) == 4) // C(4, 3)
    assert(Densest.countWithin(inst, g.n, Array.emptyIntArray) == 0)
  }

  test("DensitySearch builds a shrunk network from its own list, restricted to the kept positions") {
    // K6 on 0..5 and K4 on 6..9, joined by the edge 5-6; verts in a scrambled order
    val g    = repro.graph.LocalGraph.fromEdges(
      (for (u <- 0 until 6; v <- u + 1 until 6) yield (u.toLong, v.toLong)) ++
      (for (u <- 6 until 10; v <- u + 1 until 10) yield (u.toLong, v.toLong)) :+ ((5L, 6L)))
    val inst = Pattern.Edge.instances(g)
    val vs   = Array(9, 0, 8, 1, 7, 2, 6, 3, 5, 4)
    val built = scala.collection.mutable.ArrayBuffer.empty[(Int, Seq[Seq[Int]])]
    val search = new DensitySearch((nv, local) => {
      built += ((nv, seqs(local)))
      new repro.flow.DensestFlow.Network(nv, repro.flow.DensestFlow.ungrouped(local.toArrays), 2)
    }, Subgraph(Array.emptyIntArray, 0L))
    search.on(vs, CliqueCore.flatten(g.n, inst).restrict(vs))
    var shrunk = false
    search.climb(0.0, (_, cur) =>
      if (shrunk) cur.indices.toArray
      else { shrunk = true; cur.indices.filter(cur(_) < 6).toArray })
    assert(built.size == 2)
    assert(built(0) == ((10, naiveRestrict(inst, g.n, vs))))
    assert(built(1) == ((6, naiveRestrict(inst, g.n, vs.filter(_ < 6)))))
    assert(search.best.density == 2.5 && search.best.vertices.sorted.sameElements(0 until 6))
  }
}
