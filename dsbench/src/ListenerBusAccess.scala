package org.apache.spark

/** Waits for Spark's listener bus to deliver every posted event, so that
  * counts read from a listener are complete. `listenerBus` is package-private
  * to `org.apache.spark`, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
