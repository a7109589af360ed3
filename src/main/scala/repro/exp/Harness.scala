package repro.exp

import repro.core._
import repro.data.SynthGraphs
import repro.data.SynthGraphs.StandIn
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** Timing + table-rendering helpers shared by bench suites and jobs. */
object Harness {

  /** Wall-clock a thunk; returns (result, seconds). */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Call `f` `reps` times to warm up, then time it `reps` times; returns
    * (the first call's result, the fastest time in seconds).
    */
  def warmBest[T](reps: Int)(f: => T): (T, Double) = {
    val r = f
    (2 to reps).foreach(_ => f)
    (r, (1 to reps).map(_ => time(f)._2).min)
  }

  /** Render an ASCII table. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
  }

  def fmt(x: Double): String =
    if (x == 0.0) "0"
    else if (x == x.floor && math.abs(x) < 1e15) f"${x.toLong}%d"
    else if (math.abs(x) >= 100) f"$x%.1f"
    else f"$x%.2f"
}

/** The dataset registry used by every table. Scales shrink the paper's
  * large graphs so benches finish in minutes (DESIGN.md "Data
  * substitutions"); small graphs run at full stand-in size.
  */
object Datasets {

  /** Small graphs — all algorithms (paper Table 2 top + S-DBLP). */
  val small: Seq[String] = Seq("Yeast", "Netscience", "As-733", "Ca-HepTh", "As-Caida")

  /** Large graphs — approximation algorithms only. */
  val large: Seq[String] = Seq("DBLP", "Cit-Patents", "Friendster", "Enwiki-2017", "UK-2002")

  /** Appendix Table 6. */
  val additional: Seq[String] = Seq("Flickr", "Google", "Foursquare")

  /** GTgraph synthetics. */
  val synthetic: Seq[String] = Seq("SSCA", "ER", "R-MAT")

  /** Scale at which a dataset's stand-in is generated for benches. */
  def benchScale(name: String): Double = name match {
    case n if small.contains(n) || n == "S-DBLP" => 1.0
    case "SSCA" | "ER" | "R-MAT"                 => 0.1  // paper n=100k -> 10k
    case _                                       => 0.01 // large graphs at 1/100
  }

  def load(name: String): StandIn = SynthGraphs.standIn(name, benchScale(name))
}

/** The experiments behind each table of the evaluation section.
  * One function per table; bench suites and jobs/ mains both call these.
  */
object Tables {

  /** Table 2 + appendix Table 6: dataset inventory (paper size vs stand-in). */
  def datasets(): String = {
    val names = Datasets.small ++ Seq("S-DBLP") ++ Datasets.large ++
      Datasets.synthetic ++ Datasets.additional
    val rows = names.map { nm =>
      val s = Datasets.load(nm)
      Seq(nm, s.paperN.toString, s.paperM.toString,
          s.g.n.toString, s.g.m.toString, f"${Datasets.benchScale(nm)}%.2f")
    }
    Harness.render("Table 2/6 - datasets (paper vs stand-in)",
      Seq("Graph", "paper |V|", "paper |E|", "ours |V|", "ours |E|", "scale"), rows)
  }

  /** The share of one CoreExact call on `g` that its (k, Ψ)-core
    * decomposition takes: 5 calls to warm up, then the fastest of 5 more,
    * both times from that call's own `Stats`, so no share can pass 1.
    */
  def decompShare(g: LocalGraph, psi: Pattern): Double = {
    (1 to 5).foreach(_ => CoreExact.runWithStats(g, psi))
    val st = (1 to 5).map(_ => CoreExact.runWithStats(g, psi)._2).minBy(_.totalNanos)
    st.coreDecompNanos.toDouble / math.max(1L, st.totalNanos)
  }

  /** Table 3: % of CoreExact time spent in (k, Ψ)-core decomposition. */
  def coreDecompShare(datasetNames: Seq[String] = Seq("As-733", "Ca-HepTh"),
                      hs: Seq[Int] = Seq(2, 3, 4, 5, 6)): String = {
    val header = "Dataset" +: hs.map(h => if (h == 2) "edge" else s"$h-clique")
    val rows = datasetNames.map { nm =>
      val g = Datasets.load(nm).g
      nm +: hs.map(h => f"${100.0 * decompShare(g, Pattern.Clique(h))}%.2f%%")
    }
    Harness.render("Table 3 - % of CoreExact time in core decomposition", header, rows)
  }

  /** Table 4: EMcore vs CoreApp (seconds) for the classical k_max-core.
    * Both algorithms must return the same core; times exclude generation.
    */
  def emcoreVsCoreApp(datasetNames: Seq[String] = Datasets.large,
                      reps: Int = 3): String = {
    val cols = datasetNames.map { nm =>
      val g = Datasets.load(nm).g
      // warm-up once, then best-of-reps to tame JIT/GC noise
      val (kE0, vE0) = EMcore.kMaxCore(g)
      val (kC0, vC0, _) = CoreApp.kMaxCore(g, Pattern.Edge)
      require(kE0.toLong == kC0 && vE0.toSet == vC0.toSet,
        s"EMcore/CoreApp disagree on $nm: k=$kE0/$kC0")
      // interleave reps so JIT/GC drift hits both algorithms equally
      val ts = (1 to reps).map { _ =>
        (Harness.time(EMcore.kMaxCore(g))._2,
         Harness.time(CoreApp.kMaxCore(g, Pattern.Edge))._2)
      }
      (f"${ts.map(_._1).min}%.3f", f"${ts.map(_._2).min}%.3f")
    }
    val rows = Seq("EMcore" +: cols.map(_._1), "CoreApp" +: cols.map(_._2))
    Harness.render("Table 4 - EMcore vs CoreApp (seconds)", "Algo." +: datasetNames, rows)
  }

  /** Table 5: exact CDS/PDS densities ρ_opt and the Ψ-density of the EDS. */
  def densities(datasetNames: Seq[String] = Seq("S-DBLP", "Yeast", "Netscience", "As-733"))
      : String = {
    val pats: Seq[Pattern] = Seq(Pattern.Edge, Pattern.Triangle, Pattern.Clique(4),
      Pattern.Clique(5), Pattern.Clique(6), Pattern.Star(2), Pattern.Diamond)
    val header = "Dataset" +: pats.flatMap { p =>
      if (p == Pattern.Edge) Seq("edge rho_opt") else Seq(s"$p rho_opt", s"$p rho(EDS)")
    }
    val rows = datasetNames.map { nm =>
      val g   = Datasets.load(nm).g
      val eds = CoreExact.run(g, Pattern.Edge)
      nm +: pats.flatMap { p =>
        if (p == Pattern.Edge) Seq(Harness.fmt(eds.density))
        else {
          val cds   = CoreExact.run(g, p)
          val onEds = Subgraph(eds.vertices, p.count(g.induced(eds.vertices)))
          Seq(Harness.fmt(cds.density), Harness.fmt(onEds.density))
        }
      }
    }
    Harness.render("Table 5 - densities of CDS's / PDS's (rho_opt vs rho(EDS,psi))", header, rows)
  }

  /** Fig. 19 (tabular appendix): per-dataset stats + headline speedups.
    * Exact runs only where feasible (small graphs), matching the paper.
    * Every timed call is warmed up once and timed best of 3.
    */
  def speedups(exactOn: Seq[String] = Seq("Yeast", "Netscience", "As-733"),
               approxOn: Seq[String] = Seq("Yeast", "Netscience", "As-733", "Ca-HepTh",
                                           "As-Caida", "SSCA", "ER", "R-MAT")): String = {
    val psi = Pattern.Triangle
    val rows = approxOn.map { nm =>
      val g = Datasets.load(nm).g
      val nCC = g.components(Array.range(0, g.n)).size
      val ((kMax, coreVs, _), tCoreApp) = Harness.warmBest(3)(CoreApp.kMaxCore(g, psi))
      val (_, tPeel) = Harness.warmBest(3)(PeelApp.run(g, psi))
      val (exactRatio, coreExactD) =
        if (exactOn.contains(nm)) {
          val (r1, tExact)     = Harness.warmBest(3)(Exact.run(g, psi))
          val (r2, tCoreExact) = Harness.warmBest(3)(CoreExact.run(g, psi))
          require(math.abs(r1.density - r2.density) < 1e-6,
            s"Exact/CoreExact disagree on $nm: ${r1.density} vs ${r2.density}")
          (f"${tExact / tCoreExact}%.2f", Harness.fmt(r2.density))
        } else ("-", "-")
      Seq(nm, g.n.toString, g.m.toString, nCC.toString, kMax.toString,
          coreVs.length.toString, exactRatio, f"${tPeel / tCoreApp}%.2f", coreExactD)
    }
    Harness.render("Fig. 19 - characteristics & speedups (psi = triangle)",
      Seq("Dataset", "|V|", "|E|", "#CC", "k_max", "core size",
          "Exact/CoreExact", "PeelApp/CoreApp", "rho_opt"), rows)
  }
}
