package org.apache.spark

/** Drains Spark's listener bus so that counters fed by a listener are
  * complete when read. `SparkContext.listenerBus` is package-private, which
  * is why this one accessor lives in the `org.apache.spark` package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
