package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern

/** EMcore (Cheng et al., ICDE'11), adapted as in Section 8: runs in main
  * memory and stops once the classical k_max-core is found.
  *
  * It is CoreApp's top-down search ([[CoreApp.topDown]]) with the two
  * differences the paper calls out: the upper bound on a vertex's core
  * number is its DEGREE (not a core-based bound), and the candidate subgraph
  * grows ADDITIVELY in fixed-size blocks (not by doubling). Edge-based
  * k-cores only.
  */
object EMcore {

  /** Returns (k_max, vertex set of the k_max-core in g-local ids). */
  def kMaxCore(g: LocalGraph): (Int, Array[Int]) = {
    val block        = math.max(16, g.n / 8)
    val (k, core, _) = CoreApp.topDown(g, Pattern.Edge, Pattern.Edge.degrees(g), block, _ + block)
    (k.toInt, core)
  }
}
