package org.apache.spark

import org.apache.spark.scheduler.SparkListenerJobStart

/** Listener-bus helpers for tests that count Spark jobs. `listenerBus` and
  * `StageInfo.shuffleDepId` are package-private to `org.apache.spark`, hence
  * this file's package.
  */
object ListenerBusAccess {

  /** Waits for the listener bus to deliver every posted event, so that counts
    * read from a listener are complete. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Whether the job only materializes a shuffle: adaptive query execution
    * submits each exchange of a query as a map-stage job of its own, apart
    * from the job of the action that runs the query. */
  def isMapStageJob(e: SparkListenerJobStart): Boolean =
    e.stageInfos.maxBy(_.stageId).shuffleDepId.isDefined
}
