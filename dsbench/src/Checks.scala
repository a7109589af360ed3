package dsbench

import repro.core._
import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.collection.mutable

/** Second routes to every answer, computed once per run outside the timed
  * passes and cached.
  */
final class Reference(in: Map[String, EdgeList]) {
  private val graphs    = mutable.Map.empty[String, LocalGraph]
  private val instances = mutable.Map.empty[(String, Pattern), Array[Array[Int]]]
  private val peels     = mutable.Map.empty[(String, Pattern), CliqueCore.Result]
  private val peelApps  = mutable.Map.empty[(String, Pattern), Subgraph]
  private val optima    = mutable.Map.empty[(String, Pattern), Double]
  private val kCores    = mutable.Map.empty[String, KCore.Decomposition]

  def graph(input: String): LocalGraph =
    graphs.getOrElseUpdate(input, LocalGraph.fromEdges(in(input).edges))

  def instancesOf(input: String, psi: Pattern): Array[Array[Int]] =
    instances.getOrElseUpdate((input, psi), psi.instances(graph(input)))

  /** CliqueCore on the materialized instances. */
  def peel(input: String, psi: Pattern): CliqueCore.Result =
    peels.getOrElseUpdate((input, psi),
      CliqueCore.decomposeInstances(graph(input).n, instancesOf(input, psi)))

  def peelApp(input: String, psi: Pattern): Subgraph =
    peelApps.getOrElseUpdate((input, psi), PeelApp.run(graph(input), psi))

  def rhoOpt(input: String, psi: Pattern): Double =
    optima.getOrElseUpdate((input, psi), CoreExact.run(graph(input), psi).density)

  def kCore(input: String): KCore.Decomposition =
    kCores.getOrElseUpdate(input, KCore.decompose(graph(input)))

  def kMaxCore(input: String, psi: Pattern): Array[Long] = {
    val g = graph(input)
    peel(input, psi).kMaxCoreVertices.map(g.ids).sorted
  }

  def edgeKMaxCore(input: String): Array[Long] = {
    val g = graph(input); val d = kCore(input)
    d.coreVertices(d.kMax).map(g.ids).sorted
  }

  /** Ψ-density of an external vertex set, recounted with `Densest.subgraphOf`;
    * NaN when a vertex is not in the graph or the set is empty.
    */
  def density(input: String, psi: Pattern, vertices: Array[Long]): Double = {
    val g     = graph(input)
    val local = vertices.map(id => java.util.Arrays.binarySearch(g.ids, id))
    if (local.isEmpty || local.exists(_ < 0) || local.distinct.length != local.length) Double.NaN
    else Densest.subgraphOf(instancesOf(input, psi), g.n, local).density
  }
}

/** The checks behind `pass_rate`. Each returns the failures of one answer,
  * each naming the check and both numbers.
  */
object Checks {

  /** ε the pass gives `DistDensest.edsApprox`. */
  val EdsEps = 0.1

  private def tol(x: Double): Double = 1e-9 * math.max(1.0, math.abs(x))

  private def equal(what: String, got: Double, want: Double): Option[String] =
    if (math.abs(got - want) <= tol(want)) None else Some(s"$what: got $got, want $want")

  private def atLeast(what: String, got: Double, floor: Double): Option[String] =
    if (got >= floor - tol(floor)) None else Some(s"$what: got $got, want >= $floor")

  private def sameSet(what: String, got: Array[Long], want: Array[Long]): Option[String] =
    if (got.sameElements(want)) None
    else Some(s"$what: got ${got.length} vertices, want ${want.length} (sets differ)")

  def of(ref: Reference, a: Answer, pass: Seq[Answer]): Seq[String] = {
    val r = a.result
    def recount = equal("density recounted by Densest.subgraphOf", ref.density(a.input, a.psi, r.vertices), r.density)
    def other(algo: String) = pass.find(b => b.algo == algo && b.input == a.input && b.psi == a.psi)
    def asCliqueCore = Seq(
      equal("k_max vs CliqueCore", r.kMax.toDouble, ref.peel(a.input, a.psi).kMax.toDouble),
      sameSet("(k_max, Ψ)-core vs CliqueCore", r.vertices, ref.kMaxCore(a.input, a.psi)))
    val found = a.algo match {
      case "CoreExact" => Seq(recount, other("Exact") match {
        case Some(e) => equal("density vs Exact", r.density, e.result.density)
        case None    => atLeast("density vs PeelApp", r.density, ref.peelApp(a.input, a.psi).density)
      })
      case "Exact"     => Seq(recount)
      case "CoreApp"   => recount +: asCliqueCore
      case "EMcore"    => other("CoreApp") match {
        case Some(c) => Seq(equal("k_max vs CoreApp", r.kMax.toDouble, c.result.kMax.toDouble),
                            sameSet("k_max-core vs CoreApp", r.vertices, c.result.vertices))
        case None    => Seq(equal("k_max vs KCore", r.kMax.toDouble, ref.kCore(a.input).kMax.toDouble))
      }
      case "PeelApp"   => Seq(recount,
        atLeast("density vs k_max/|V_Ψ| (Theorem 1)", r.density,
                ref.peel(a.input, a.psi).kMax.toDouble / a.psi.numVertices))
      case "DistKCore.kMaxCore" => Seq(
        equal("k_max vs KCore", r.kMax.toDouble, ref.kCore(a.input).kMax.toDouble),
        sameSet("k_max-core vs KCore", r.vertices, ref.edgeKMaxCore(a.input)))
      case "DistDensest.edsApprox" =>
        val opt = ref.rhoOpt(a.input, a.psi)
        Seq(recount,
            atLeast("density vs ρ_opt/(2(1+ε))", r.density, opt / (2 * (1 + EdsEps))),
            atLeast("ρ_opt vs density", opt, r.density))
      case "DistDensest.triangleKMaxCore" => asCliqueCore
      case other => Seq(Some(s"no check for $other"))
    }
    found.flatten
  }
}
