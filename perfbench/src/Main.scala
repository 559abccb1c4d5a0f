package perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** What one rep of a workload produced: the number of result rows, an
  * order-independent checksum of them (when the rep sees the rows), and the
  * program's deterministic work counters.
  */
final case class Outcome(rows: Long, checksum: Option[Long], counters: Map[String, Long])

/** One benchmark workload. The benchmark builds its inputs from the seed;
  * the program only ever sees those inputs.
  */
trait Workload {
  /** Input rows one rep processes; the denominator of every per-row metric. */
  def inputRows: Long

  /** Untimed reps after the check pass; warm-up also lasts at least a third
    * of the measured time.
    */
  def warmupReps: Int

  /** Builds the program's inputs (and any store or session they live in).
    * Called several times per run; the last build is the one queried.
    */
  def setup(): Unit

  /** Expected (rows, checksum), computed by a reference that shares no code
    * with the program.
    */
  def reference(): (Long, Long)

  /** One rep of the query, as a user runs it, with tracing off. */
  def run(): Outcome

  /** One rep with a span at each layer boundary and separate counters per
    * layer call. With `verify`, every output that carries OVCs is checked
    * with `OvcInvariants.verifyChain`. Returns the per-layer metrics.
    */
  def traced(t: Tracer, verify: Boolean): (Outcome, Map[String, Double])

  /** Heap bytes allocated so far by the threads that run the query. */
  def allocatedBytes(): Long = Jvm.threadAllocatedBytes()

  /** Called after every rep, outside its timing. */
  def cleanup(): Unit = ()

  def close(): Unit = ()
}

/** Runs one workload and prints one JSON line: metric values, sample counts,
  * failures and the JVM record. `perfbench/run.py` turns it into the
  * benchmark's result line.
  *
  * Args: --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--corrupt]
  * `--scale` shrinks every input (smoke test); `--corrupt` perturbs the
  * reference so that every rep must count as failed.
  */
object Main {

  val SetupReps = 5
  val MinSamples = 3

  /** Every per-layer metric, in the order of BENCHMARK.json. A workload
    * that does not reach a layer reports 0 for it.
    */
  val PerLayer: Seq[String] = Seq(
    "sort.rungen_s", "sort.rungen_code_cmps_per_row", "sort.rungen_col_cmps_per_row",
    "sort.rungen_alloc_bytes_per_row", "sort.merge_s", "sort.merge_code_cmps_per_row",
    "sort.merge_col_cmps_per_row", "sort.runs", "sort.merge_levels", "sort.spill_rows",
    "sort.spill_bytes", "sort.runfile_write_s", "sort.runfile_read_s",
    "ops.merge_join_s", "ops.merge_join_code_cmps", "ops.merge_join_col_cmps",
    "ops.rle_scan_s", "ops.filter_s", "ops.segmented_sort_s", "ops.segmented_sort_col_cmps",
    "ops.group_agg_s", "ops.group_agg_col_cmps",
    "hash.agg_build_s", "hash.agg_drain_s", "hash.agg_spill_rows", "hash.agg_spill_bytes",
    "hash.join_s", "hash.join_spill_rows", "hash.join_spill_bytes", "hash.col_accesses_per_row",
    "core.col_cmps_per_row_cmp",
    "plans.spill_bytes_per_row", "plans.spilled_rows_per_row",
    "plans.rows_per_s", "plans.failed_share", "plans.trace_overhead",
    "spark.group_count_s", "spark.intersect_s", "spark.task_s", "spark.task_gc_s",
    "spark.shuffle_bytes", "spark.native_group_count_s", "spark.native_intersect_s",
    "jvm.gc_s")

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val scale = opts.getOrElse("scale", "1").toDouble
    val w = Workloads(opts("workload"), seed, scale)
    try report(w, seconds, trace, opts.contains("corrupt"))
    finally w.close()
  }

  private def parse(args: Array[String]): Map[String, String] = {
    val m = mutable.Map.empty[String, String]
    var i = 0
    while (i < args.length) {
      val k = args(i).stripPrefix("--")
      if (k == "corrupt") { m(k) = "1"; i += 1 }
      else {
        require(i + 1 < args.length, s"missing value for ${args(i)}")
        m(k) = args(i + 1); i += 2
      }
    }
    for (k <- Seq("workload", "seed", "seconds", "trace")) require(m.contains(k), s"missing --$k")
    m.toMap
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def report(w: Workload, seconds: Double, trace: Boolean, corrupt: Boolean): Unit = {
    val setupTimes = (1 to SetupReps).map(_ => timed(w.setup())._2)
    System.err.println(s"perfbench: setup ${setupTimes.mkString(" ")} s")
    val (refRows, refSum) = {
      val (r, s) = w.reference()
      if (corrupt) (r + 1, s ^ 1L) else (r, s)
    }

    var attempted = 0
    var failed = 0
    val problems = ArrayBuffer.empty[String]
    var untracedCounters: Map[String, Long] = null
    var tracedCounters: Map[String, Long] = null

    def fail(msg: String): Unit = { failed += 1; if (problems.size < 20) problems += msg }

    /** Runs one rep; returns its result, or None if it threw. A wrong result
      * or a counter that differs from the first rep of its kind (or from
      * the other kind on a shared counter) counts the rep as failed.
      */
    def attempt[A](label: String, traced: Boolean)(f: => (Outcome, A)): Option[(Outcome, A)] = {
      attempted += 1
      val t0 = System.nanoTime()
      try {
        val r @ (o, _) = f
        System.err.println(f"perfbench: $label%s ${(System.nanoTime() - t0) / 1e9}%.3f s")
        val first = if (traced) tracedCounters else untracedCounters
        val other = if (traced) untracedCounters else tracedCounters
        if (first == null) { if (traced) tracedCounters = o.counters else untracedCounters = o.counters }
        val problem =
          if (o.rows != refRows) Some(s"$label: ${o.rows} rows, expected $refRows")
          else if (o.checksum.exists(_ != refSum)) Some(s"$label: checksum ${o.checksum.get}, expected $refSum")
          else if (first != null && first != o.counters)
            Some(s"$label: counters ${o.counters} differ from the first rep's $first")
          else if (other != null && o.counters.exists { case (k, v) => other.get(k).exists(_ != v) })
            Some(s"$label: counters ${o.counters} differ from the ${if (traced) "un" else ""}traced run's $other")
          else None
        problem.foreach(fail)
        Some(r)
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          fail(s"$label: ${e.getClass.getName}: ${e.getMessage}")
          None
      } finally w.cleanup()
    }

    // The check pass verifies every OVC chain and doubles as the first warm-up rep.
    attempt("check pass", traced = true)(w.traced(new Tracer, verify = true))
    val warm0 = System.nanoTime()
    var warm = 0
    while (warm < w.warmupReps || (System.nanoTime() - warm0) / 1e9 < seconds / 3) {
      warm += 1
      attempt(s"warm-up $warm", traced = false)((w.run(), ()))
    }

    val times = ArrayBuffer.empty[Double]
    val allocs = ArrayBuffer.empty[Double]
    val layers = ArrayBuffer.empty[Map[String, Double]]
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var rep = 0
    while (elapsed < seconds || rep < MinSamples) {
      rep += 1
      if (trace) {
        val gc0 = Jvm.gcSeconds()
        attempt(s"traced rep $rep", traced = true)(w.traced(new Tracer, verify = false))
          .foreach { case (_, m) => layers += m + ("jvm.gc_s" -> (Jvm.gcSeconds() - gc0)) }
      }
      attempt(s"rep $rep", traced = false) {
        val a0 = w.allocatedBytes()
        val start = System.nanoTime()
        val o = w.run()
        (o, ((System.nanoTime() - start) / 1e9, (w.allocatedBytes() - a0).toDouble))
      }.foreach { case (_, (sec, bytes)) => times += sec; allocs += bytes }
    }

    val metrics = mutable.LinkedHashMap.empty[String, Double]
    val samples = mutable.LinkedHashMap.empty[String, Int]
    if (!trace) {
      if (times.nonEmpty) {
        metrics("alloc_bytes_per_row") = median(allocs.toSeq) / w.inputRows
        // Counters repeat exactly across reps (checked above): one rep's suffice.
        val c = untracedCounters
        metrics("column_accesses_per_row") =
          (c.getOrElse("col_cmps", 0L) + c.getOrElse("hash_col_accesses", 0L)).toDouble / w.inputRows
      }
      metrics("setup_s") = median(setupTimes)
      samples ++= Seq("alloc_bytes_per_row" -> allocs.size, "column_accesses_per_row" -> times.size,
                      "setup_s" -> setupTimes.size)
    } else if (layers.nonEmpty && times.nonEmpty) {
      for (name <- PerLayer) {
        metrics(name) = median(layers.toSeq.map(_.getOrElse(name, 0.0)))
        samples(name) = layers.size
      }
      // Other tenants of the machine slow it down in episodes of seconds,
      // by up to 2x, and never speed a rep up, so the fastest untraced rep
      // is the least disturbed one.
      metrics("plans.rows_per_s") = w.inputRows / times.min
      samples("plans.rows_per_s") = times.size
      metrics("plans.trace_overhead") = median(layers.toSeq.map(_("plan_s"))) / median(times.toSeq)
    }
    if (trace) { metrics("plans.failed_share") = failed.toDouble / attempted; samples("plans.failed_share") = attempted }

    val out = new StringBuilder("{")
    out ++= "\"metrics\":" ++= Json.obj(metrics.map { case (k, v) => k -> Json.num(v) })
    out ++= ",\"samples\":" ++= Json.obj(samples.map { case (k, v) => k -> v.toString })
    out ++= ",\"rep_seconds\":" ++= times.map(Json.num).mkString("[", ",", "]")
    out ++= s",\"input_rows\":${w.inputRows}"
    out ++= s",\"attempted\":$attempted,\"failed\":$failed,\"warmup_reps\":${warm + 1}"
    out ++= ",\"problems\":" ++= problems.map(Json.str).mkString("[", ",", "]")
    out ++= ",\"jvm\":" ++= Json.str(Jvm.version)
    out ++= ",\"heap_flags\":" ++= Jvm.heapFlags.map(Json.str).mkString("[", ",", "]")
    out ++= s",\"nproc\":${Runtime.getRuntime.availableProcessors}}"
    Console.out.flush()
    println(out.result())
  }
}

object Json {
  def str(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  def obj(kv: Iterable[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")
}
