package dsbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans the benchmark records around calls into one layer's public
  * functions, summed per layer. With tracing off `span` only runs its body,
  * so a timed pass and the traced pass make the same calls.
  */
final class Trace(val on: Boolean) {
  private val nanos = mutable.LinkedHashMap.empty[String, Long]

  def span[T](layer: String)(body: => T): T =
    if (!on) body
    else {
      val t0 = System.nanoTime()
      try body
      finally nanos(layer) = nanos.getOrElse(layer, 0L) + (System.nanoTime() - t0)
    }

  def bySpan: Seq[(String, Double)] = nanos.toSeq.map { case (k, v) => k -> v / 1e9 }

  def totalSeconds: Double = nanos.values.sum / 1e9
}

/** JVM-wide readings from the management beans. */
object Jvm {

  /** Collection time of all garbage collectors so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum / 1e3

  /** Heap in use after full collections, in MB. */
  private def heapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Heap `make` leaves reachable through its result, in MB. */
  def retainedMb[T](make: => T): (T, Double) = {
    val before = heapMb()
    val r      = make
    val mb     = heapMb() - before
    java.lang.ref.Reference.reachabilityFence(r)
    (r, math.max(0.0, mb))
  }
}

/** Spark rounds and shuffle traffic, counted from the listener bus. */
final class SparkRounds(sc: SparkContext) extends SparkListener {
  val jobs, stages, tasks, shuffleBytes, shuffleRecords = new AtomicLong
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    stages.incrementAndGet()
    tasks.addAndGet(e.stageInfo.numTasks)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (e.taskMetrics != null) {
      shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
      shuffleRecords.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }

  /** Current totals, after every event posted so far has been delivered. */
  def snapshot(): Map[String, Long] = {
    org.apache.spark.ListenerBusAccess.drain(sc)
    Map("jobs" -> jobs.get, "stages" -> stages.get, "tasks" -> tasks.get,
        "shuffle_bytes" -> shuffleBytes.get, "shuffle_records" -> shuffleRecords.get)
  }
}
