package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** JVM probes: per-thread allocation, collector time, heap flags. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap bytes allocated so far by the calling thread. */
  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Heap bytes allocated so far by every live thread (Spark runs its tasks
    * on executor threads of this JVM in local mode).
    */
  def allThreadsAllocatedBytes(): Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum

  /** Total time spent in garbage collection so far. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  def heapFlags: Seq[String] =
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
      .filter(a => a.startsWith("-Xms") || a.startsWith("-Xmx") || a.startsWith("-XX:+Use"))

  def version: String =
    s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"
}

/** Time spent at one layer boundary. `parent` is the span that was open
  * when this one started; the spans of one traced rep share a root span.
  * A span either covers one call, or sums the calls into an iterator that
  * a layer returned and another layer drains.
  */
final class Span(val name: String, val parent: Span) {
  var nanos = 0L
  var allocBytes = 0L
  def seconds: Double = nanos / 1e9
}

/** Keeps the spans of one traced rep in memory. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]
  private var open: Span = null

  private def start(name: String): Span = {
    val s = new Span(name, open)
    spans += s
    s
  }

  /** Runs `body` in a span, with the heap bytes it allocates. */
  def apply[A](name: String)(body: => A): A = {
    val s = start(name)
    open = s
    val a0 = Jvm.threadAllocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      s.nanos = System.nanoTime() - t0
      s.allocBytes = Jvm.threadAllocatedBytes() - a0
      open = s.parent
    }
  }

  /** Wraps `it` so that the time spent in its `hasNext` and `next` sums into
    * one span, a child of the span open now. Use it where the consumer stops
    * early, so that draining the input first would do work the plan skips.
    */
  def iterator[A](name: String, it: Iterator[A]): Iterator[A] = {
    val s = start(name)
    new Iterator[A] {
      def hasNext: Boolean = {
        val t0 = System.nanoTime()
        try it.hasNext finally s.nanos += System.nanoTime() - t0
      }
      def next(): A = {
        val t0 = System.nanoTime()
        try it.next() finally s.nanos += System.nanoTime() - t0
      }
    }
  }

  /** Duration minus the part of it covered by child spans. */
  def selfSeconds(s: Span): Double = s.seconds - spans.iterator.filter(_.parent eq s).map(_.seconds).sum

  /** Self time summed over every span with this name. */
  def self(name: String): Double = spans.iterator.filter(_.name == name).map(selfSeconds).sum

  def alloc(name: String): Long = spans.iterator.filter(_.name == name).map(_.allocBytes).sum

  def total(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum
}
