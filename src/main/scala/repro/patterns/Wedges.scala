package repro.patterns

import repro.graph.LocalGraph

/** The one C4 (diamond) kernel: wedge counting around a center vertex, as
  * in Chiba & Nishizeki's (1985) 4-cycle listing. [[around]] counts, for
  * every endpoint u of a live 2-path v–a–u, the live middles a, in a reused
  * `Int` array with a list of the endpoints it touched: no boxing and no
  * hash maps. Each C4 through v is a pair of middles of one endpoint, so
  * v's C4 degree is Σ_u C(common(u), 2) ([[cycles]]). Diamond listing,
  * its closed-form degrees and the incremental diamond peel of
  * [[SpecialCores]] all run on it.
  */
private[patterns] final class Wedges(g: LocalGraph) {

  /** common(u): live middles between the last center and u; 0 for u not in [[ends]]. */
  val common = new Array[Int](g.n)

  /** The endpoints with common(u) > 0, in first-touch order: `ends(0 until size)`. */
  val ends = new Array[Int](g.n)
  private var touched = 0

  def size: Int = touched

  /** Count the live 2-paths v–a–u with a > `above`, u > `above` and u ≠ v.
    * The liveness of v itself is not checked. Neighbour slices are sorted,
    * so each is read from its end down to `above`. */
  def around(v: Int, alive: Array[Boolean], above: Int): Unit = {
    var i = 0
    while (i < touched) { common(ends(i)) = 0; i += 1 }
    touched = 0
    val nbr = g.nbr
    i = g.off(v + 1) - 1
    while (i >= g.off(v) && nbr(i) > above) {
      val a = nbr(i)
      if (alive(a)) {
        var j = g.off(a + 1) - 1
        while (j >= g.off(a) && nbr(j) > above) {
          val u = nbr(j)
          if (u != v && alive(u)) {
            if (common(u) == 0) { ends(touched) = u; touched += 1 }
            common(u) += 1
          }
          j -= 1
        }
      }
      i -= 1
    }
  }

  /** Σ_u C(common(u), 2) over the last [[around]]'s endpoints. */
  def cycles: Long = {
    var t = 0L
    var i = 0
    while (i < size) { val c = common(ends(i)).toLong; t += c * (c - 1) / 2; i += 1 }
    t
  }
}
