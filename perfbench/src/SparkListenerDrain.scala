package org.apache.spark

/** Blocks until every queued listener event has been delivered, so task
  * metrics read after a query include all of its tasks. Lives in Spark's
  * package because the listener bus is visible only there.
  */
object SparkListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
