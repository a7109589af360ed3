package repro.core

/** The (k, Ψ)-core peel shared by [[CliqueCore]] and
  * [[repro.patterns.SpecialCores]]: remove the live vertex of smallest
  * (pattern-degree, id) n times, recording core numbers, the removal order
  * and the densest residual graph. Subclasses differ only in where a
  * removal's losses come from: [[CliqueCore]]'s store peel reads them from
  * its instance store and index; the clique peel of
  * [[repro.patterns.SpecialCores]] lists again the cliques through the
  * removed vertex, and its edge, star and diamond peels count them in
  * closed form.
  *
  * Live vertices sit in an indexed binary min-heap on two primitive arrays,
  * `heap` and its inverse `pos`, keyed by (deg(v), v). Degrees only fall, so
  * a change sifts the vertex up in place: the peel allocates nothing after
  * construction and the heap holds no stale entries. Ties go to the smaller
  * id, so the removal order is a function of the current degrees alone,
  * whatever order the updates arrive in. (A bucket queue would need an array
  * as long as the largest degree, 31,465 on Ca-HepTh with Ψ = 5-clique, and
  * its order within a bucket would depend on the update history.)
  *
  * A subclass only lowers degrees, in [[removed]], and lowers each vertex
  * the removal touched once, by all it lost: one sift per touched vertex,
  * not one per lost instance. The peel keeps μ: deg(v) at v's removal
  * counts exactly v's live instances, so μ falls by deg(v). It records μ of
  * two residuals: the densest, and the one just before the removal that
  * last raises k, which is the (k_max, Ψ)-core. μ₀ bounds every degree and
  * every loss, so no count here can overflow.
  *
  * @param deg initial pattern-degree per vertex; the peel updates it in place
  */
abstract class Peel(deg: Array[Long]) {
  private val n    = deg.length
  private val heap = Array.range(0, n)
  private val pos  = Array.range(0, n)
  private var size = n

  { var i = n / 2 - 1; while (i >= 0) { siftDown(i); i -= 1 } }

  /** Called once per removed vertex `v`, after it has left the heap: must
    * [[lower]] every live vertex by the instances it shared with `v`. */
  protected def removed(v: Int): Unit

  /** Whether `v` is still in the heap: false from its [[removed]] call on. */
  final def live(v: Int): Boolean = pos(v) >= 0

  /** deg(v) ← deg(v) − by for a live vertex `v`; degrees never rise. */
  final def lower(v: Int, by: Long): Unit = { deg(v) -= by; siftUp(pos(v)) }

  /** Peel every vertex; `mu0` is μ of the whole graph. */
  final def run(mu0: Long): CliqueCore.Result = {
    val core        = new Array[Long](n)
    val order       = new Array[Int](n)
    var k           = 0L
    var mu          = mu0
    var bestDensity = if (n == 0) 0.0 else mu0.toDouble / n
    var bestMu      = mu0
    var bestSuffix  = 0
    var kMaxMu      = mu0
    var done        = 0
    while (done < n) {
      val v = heap(0)
      size -= 1
      if (size > 0) { heap(0) = heap(size); siftDown(0) }
      pos(v) = -1
      if (deg(v) > k) { k = deg(v); kMaxMu = mu }
      core(v) = k
      order(done) = v
      mu -= deg(v)
      removed(v)
      done += 1
      if (done < n) {
        val dens = mu.toDouble / (n - done)
        if (dens > bestDensity) { bestDensity = dens; bestMu = mu; bestSuffix = done }
      }
    }
    CliqueCore.Result(core, order, mu0, bestMu, bestSuffix, kMaxMu)
  }

  private def less(a: Int, b: Int): Boolean =
    deg(a) < deg(b) || (deg(a) == deg(b) && a < b)

  private def siftUp(from: Int): Unit = {
    val v = heap(from)
    var i = from
    var p = (i - 1) >> 1
    while (i > 0 && less(v, heap(p))) {
      heap(i) = heap(p); pos(heap(i)) = i
      i = p; p = (i - 1) >> 1
    }
    heap(i) = v; pos(v) = i
  }

  private def siftDown(from: Int): Unit = {
    val v = heap(from)
    var i = from
    var c = 2 * i + 1
    if (c + 1 < size && less(heap(c + 1), heap(c))) c += 1
    while (c < size && less(heap(c), v)) {
      heap(i) = heap(c); pos(heap(i)) = i
      i = c; c = 2 * i + 1
      if (c + 1 < size && less(heap(c + 1), heap(c))) c += 1
    }
    heap(i) = v; pos(v) = i
  }
}
