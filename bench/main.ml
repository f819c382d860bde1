(* Regenerates every table and figure of the paper's evaluation, prints
   the same rows/series the paper reports alongside the paper's numbers,
   runs the design-choice ablations called out in DESIGN.md, and finishes
   with Bechamel microbenchmarks of the core primitives.

   Usage: main.exe [smoke|quick|full] [--csv DIR] [only ...]
   Default scale: quick (a few minutes). [micro] among the names runs
   the microbenchmarks, which otherwise run only when no name is given. *)

module Figures = C4.Figures
module Config = C4.Config
module Table = C4_stats.Table
module Csv = C4_stats.Csv
module Server = C4_model.Server
module Experiment = C4_model.Experiment
module Metrics = C4_model.Metrics

let csv_dir = ref None

let save_csv name csv =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".csv") in
    Csv.save csv ~path;
    Printf.printf "  [csv] %s\n" path

let section title = Printf.printf "\n=== %s ===\n%!" title

let paper note = Printf.printf "  paper: %s\n" note

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "  (%.1fs)\n%!" (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)

let fig3 scale =
  section "Fig. 3 — WI_uni: throughput under SLO & excess 99th% vs write fraction";
  let t = timed (fun () -> Figures.Fig3.run ~scale ()) in
  Table.print (Figures.Fig3.to_table t);
  Printf.printf "  Ideal peak: %.1f MRPS\n" t.Figures.Fig3.ideal_mrps;
  paper
    "EREW saturates at ~0.75 of Ideal at all f_wr; CREW matches Ideal's tput for \
     f_wr<75% then converges to EREW; CREW/EREW inflate 99th% by 2-5.5x for \
     f_wr>=50%; Dynamic tracks Ideal in both metrics.";
  save_csv "fig3" (Figures.Fig3.to_csv t)

let fig4 scale =
  section "Fig. 4 — RW_sk surface: CREW vs compaction, tput under SLO / Ideal";
  let t = timed (fun () -> Figures.Fig4.run ~scale ()) in
  Table.print (Figures.Fig4.to_table t);
  print_string (Figures.Fig4.to_heatmap t);
  paper
    "(0.99,35%): CREW attains only 0.56 of ideal; (1.4,5%): 0.66, compaction \
     1.56x speedup; compaction holds ideal tput at gamma=0.99 up to f_wr=55%.";
  save_csv "fig4" (Figures.Fig4.to_csv t)

let fig9 scale =
  section "Fig. 9 — load vs 99th%, uniform keys, f_wr=50% (all systems)";
  let t, mvrlu_fails = timed (fun () -> Figures.Load_latency.fig9 ~scale ()) in
  Table.print (Figures.Load_latency.to_table t);
  Printf.printf
    "  SLO (10x mean service) = %.0f ns; MV-RLU misses SLO at lowest load: %b\n"
    (10.0 *. t.Figures.Load_latency.mean_service)
    mvrlu_fails;
  paper
    "Only d-CREW tracks Ideal (to 91 MRPS); EREW reaches 76 (80% of Ideal); RLU \
     caps at 10 MRPS; MV-RLU cannot meet the 10x SLO even at 4 MRPS; Comp runs \
     ~4 MRPS below Baseline (fruitless queue scans); d-CREW cuts 99th% 1.3x vs CREW.";
  save_csv "fig9" (Figures.Load_latency.to_csv t)

let fig10 scale =
  section "Fig. 10 — load vs 99th% as f_wr rises 50% -> 85%";
  let t = timed (fun () -> Figures.Load_latency.fig10 ~scale ()) in
  Table.print (Figures.Load_latency.to_table t);
  paper
    "Baseline CREW approaches EREW as f_wr grows (83 MRPS, 5x Ideal's 99th% at \
     85%); d-CREW stays near Ideal (87+ MRPS, 3.1x lower 99th% than CREW).";
  save_csv "fig10" (Figures.Load_latency.to_csv t)

let fig11 scale =
  section "Fig. 11 — RW_sk gamma=1.25, f_wr=5%: tput under SLO & hottest-thread service";
  let t = timed (fun () -> Figures.Compaction_study.fig11 ~scale ()) in
  Table.print (Figures.Compaction_study.to_table t);
  Printf.printf
    "  tput@SLO: base(10x)=%.1f comp(10x)=%.1f comp(20x)=%.1f MRPS  (gain %.2fx / %.2fx)\n"
    t.Figures.Compaction_study.base_tput_slo10 t.comp_tput_slo10 t.comp_tput_slo20
    (t.comp_tput_slo10 /. Float.max 1e-9 t.base_tput_slo10)
    (t.comp_tput_slo20 /. Float.max 1e-9 t.base_tput_slo10);
  paper
    "Baseline saturates at 76 MRPS (hot thread's service 2.4x to 908 ns); Comp \
     reaches 125 (10x SLO) / 142 (20x); hot thread's service time *falls* with \
     load to 243 ns once windows open (3.7x reduction, model predicts 3.9x).";
  save_csv "fig11" (Figures.Compaction_study.to_csv t)

let fig12 scale =
  section "Fig. 12 — per-thread throughput & utilisation at peak (Fig. 11 workload)";
  let t = timed (fun () -> Figures.Fig12.run ~scale ()) in
  Table.print (Figures.Fig12.to_table t);
  Printf.printf "  hottest writer: base %.2f MRPS -> comp %.2f MRPS\n"
    t.Figures.Fig12.base_hot_tput t.Figures.Fig12.comp_hot_tput;
  paper
    "Baseline: uniform ~1.28 MRPS/thread, overloaded writer <1 MRPS at ~max \
     utilisation. C-4: hottest writer 0.92 -> 1.66 MRPS with utilisation down to \
     ~47%; readers >2.3 MRPS near 100% (read-bound saturation).";
  save_csv "fig12" (Figures.Fig12.to_csv t)

let fig13 scale =
  section "Fig. 13 — RW_sk gamma=0.99, f_wr=50%";
  let t = timed (fun () -> Figures.Compaction_study.fig13 ~scale ()) in
  Table.print (Figures.Compaction_study.to_table t);
  Printf.printf "  tput@SLO: base(10x)=%.1f comp(10x)=%.1f comp(20x)=%.1f MRPS\n"
    t.Figures.Compaction_study.base_tput_slo10 t.comp_tput_slo10 t.comp_tput_slo20;
  paper
    "Baseline 56 MRPS under 10x SLO; Comp 58 (10x) and 100 (20x). Comp's 99th% \
     jumps early (compaction events form the 99th% from ~10 MRPS) then grows \
     only ~300 ns from 20->80 MRPS.";
  save_csv "fig13" (Figures.Compaction_study.to_csv t)

let table2 scale =
  section "Table 2 — item-size sensitivity of write compaction";
  let t = timed (fun () -> Figures.Table2.run ~scale ()) in
  Table.print (Figures.Table2.to_table t);
  paper
    "8/8: 266->363 MRPS (1.4x), hot 1.1x; 16/128: 142->190 (1.33x), hot 1.3x; \
     16/512: 76->125 (1.6x), hot 1.6x — compaction's edge grows with item size.";
  save_csv "table2" (Figures.Table2.to_csv t)

let ewt scale =
  section "Sec. 7.1.1 — Exclusive Writer Table occupancy (d-CREW @ 90 MRPS)";
  let t = timed (fun () -> Figures.Ewt_study.run ~scale ()) in
  Table.print (Figures.Ewt_study.to_table t);
  paper "avg 30 (f_wr=50%) / 52 (85%); max 64 / 90 — a 128-entry table suffices."

let eqn1 scale =
  section "Eqn. (1) — compaction acceleration: model vs measured";
  let t = timed (fun () -> Figures.Eqn1.run ~scale ()) in
  Table.print (Figures.Eqn1.to_table t);
  paper "model predicts A~3.9, measured 3.7 (gap = window-metadata software overheads)."

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figure set.                           *)

let delegation scale =
  section "Extension — software delegation vs C-4 (Sec. 8's alternative)";
  let n = Figures.n_requests scale in
  let wl = Config.workload_wi_uni ~write_fraction:0.5 in
  let t =
    Table.create
      ~columns:
        [
          ("system", Table.Left);
          ("load MRPS", Table.Right);
          ("p99 ns", Table.Right);
          ("mean ns", Table.Right);
        ]
  in
  List.iter
    (fun (label, policy) ->
      List.iter
        (fun rate ->
          let cfg = { Server.default_config with Server.policy } in
          let p = Experiment.run_at ~n_requests:n cfg ~workload:wl ~rate in
          Table.add_row t
            [
              label;
              Table.cell_f ~decimals:0 (rate *. 1e3);
              Table.cell_f ~decimals:0 p.Experiment.p99_ns;
              Table.cell_f ~decimals:0 p.Experiment.mean_ns;
            ])
        [ 0.04; 0.07; 0.085 ])
    [
      ("CREW", C4_model.Policy.Crew);
      ("Delegation", C4_model.Policy.Delegate C4_model.Policy.delegation_default);
      ("d-CREW", C4_model.Policy.Dcrew);
    ];
  Table.print t;
  paper
    "delegation (ffwd/RCL/flat combining) re-implements CREW in software with \
     request-shuffling overheads (Sec. 8); d-CREW gets the same single-writer \
     guarantee from the NIC for free."

let ewt_hardware scale =
  section "Extension — EWT hardware budget (Sec. 5.2 CACTI sizing)";
  ignore scale;
  let open C4_nic.Ewt_cost in
  let t =
    Table.create
      ~columns:
        [
          ("entries", Table.Right);
          ("CAM bits", Table.Right);
          ("RAM bits", Table.Right);
          ("area mm^2", Table.Right);
          ("power mW", Table.Right);
          ("% of 280W chip", Table.Right);
        ]
  in
  List.iter
    (fun entries ->
      let g = { paper_geometry with entries } in
      Table.add_row t
        [
          Table.cell_i entries;
          Table.cell_i g.partition_bits;
          Table.cell_i (g.thread_bits + g.counter_bits);
          Printf.sprintf "%.5f" (area_mm2 g);
          Table.cell_f (dynamic_power_mw g);
          Printf.sprintf "%.4f%%" (100.0 *. power_fraction g);
        ])
    [ 16; 64; 128; 256; 1024 ];
  Table.print t;
  let sized = size_for ~n_partitions:8192 ~n_threads:64 ~max_outstanding_writes:90 () in
  Printf.printf "  sized for the measured f_wr=85%% peak (90 outstanding): %s
"
    (Format.asprintf "%a" pp sized);
  paper "128 x (30b CAM + 12b RAM) = 0.004 mm^2, 6.85 mW, ~0.002% of a 280 W chip."

let cluster scale =
  section "Extension — multi-node cluster (Sec. 8: imbalance is worse distributed)";
  let n = Figures.n_requests scale * 2 in
  let run ?netcache label node workload =
    let t =
      C4_cluster.Cluster.run
        { C4_cluster.Cluster.n_nodes = 4; node; workload; netcache }
        ~n_requests:n
    in
    Printf.printf
      "  %-22s cluster p99 = %8.0f ns  tput = %6.1f MRPS  hot-node share = %.2fx fair%s\n"
      label t.C4_cluster.Cluster.cluster_p99 t.C4_cluster.Cluster.cluster_tput_mrps
      t.C4_cluster.Cluster.imbalance
      (if t.C4_cluster.Cluster.switch_hits > 0 then
         Printf.sprintf "  (switch served %d)" t.C4_cluster.Cluster.switch_hits
       else "")
  in
  let node policy = { (Config.model policy) with Server.n_workers = 16 } in
  let wi = { (Config.workload_wi_uni ~write_fraction:0.75) with C4_workload.Generator.rate = 0.07 } in
  Printf.printf " WI_uni (75%% writes) at 70 MRPS cluster-wide, 4 nodes x 16 workers:\n";
  run "CREW per node" (node Config.Baseline) wi;
  run "d-CREW per node" (node Config.Dcrew) wi;
  let sk = { (Config.workload_rw_sk ~theta:0.99 ~write_fraction:0.5) with C4_workload.Generator.rate = 0.045 } in
  Printf.printf " RW_sk (gamma=0.99, 50%% writes) at 45 MRPS cluster-wide (hot WORKER binds):\n";
  run "CREW per node"
    { (node Config.Baseline) with Server.cache = Some C4_cache.Coherence.default_params }
    sk;
  run "CREW + compaction"
    { (node Config.Comp) with Server.cache = Some C4_cache.Coherence.default_params }
    sk;
  let extreme = { (Config.workload_rw_sk ~theta:1.25 ~write_fraction:0.05) with C4_workload.Generator.rate = 0.14 } in
  Printf.printf
    " RW_sk (gamma=1.25, 5%% writes) at 140 MRPS cluster-wide (hot NODE binds):\n";
  run "CREW per node"
    { (node Config.Baseline) with Server.cache = Some C4_cache.Coherence.default_params }
    extreme;
  run "CREW + compaction"
    { (node Config.Comp) with Server.cache = Some C4_cache.Coherence.default_params }
    extreme;
  run
    ~netcache:{ C4_cluster.Cluster.hot_keys = 128; t_switch = 300.0 }
    "CREW + NetCache-style"
    { (node Config.Baseline) with Server.cache = Some C4_cache.Coherence.default_params }
    extreme;
  paper
    "Sec. 8 predicts single-node write imbalance is strictly worse distributed. \
     Two regimes emerge: at moderate skew the hottest WORKER binds and per-node \
     compaction restores the cluster; at extreme skew the hottest NODE itself \
     saturates (1.68x its fair share) and no intra-node concurrency control can \
     help — an in-network read cache over the hottest items (NetCache's 'small \
     cache, big effect') removes the node imbalance, as the last row shows."

let size_aware scale =
  section "Extension — size-aware d-CREW (Sec. 8's Minos adaptation)";
  let n = Figures.n_requests scale in
  (* 3% of partitions hold 16 KiB items (~17 us service) among 512 B
     ones; size-segregated partitions, 10 MRPS on 64 workers. *)
  let wl =
    {
      (Config.workload_wi_uni ~write_fraction:0.3) with
      C4_workload.Generator.rate = 0.04;
      large_value_size = 16_384;
      large_fraction = 0.03;
    }
  in
  let t =
    Table.create
      ~columns:
        [
          ("system", Table.Left);
          ("small p99 ns", Table.Right);
          ("large p99 ns", Table.Right);
          ("overall p99 ns", Table.Right);
        ]
  in
  List.iter
    (fun (label, policy) ->
      let cfg = { Server.default_config with Server.policy } in
      let m = (Experiment.run_at ~n_requests:n cfg ~workload:wl ~rate:0.04).Experiment.result.Server.metrics in
      Table.add_row t
        [
          label;
          Table.cell_f ~decimals:0 (C4_stats.Histogram.p99 (Metrics.small_latency m));
          Table.cell_f ~decimals:0 (C4_stats.Histogram.p99 (Metrics.large_latency m));
          Table.cell_f ~decimals:0 (Metrics.p99 m);
        ])
    [
      ("CREW (Minos-less baseline)", C4_model.Policy.Crew);
      ("d-CREW", C4_model.Policy.Dcrew);
      ( "Size-aware d-CREW (16 reserved)",
        C4_model.Policy.Size_aware
          { C4_model.Policy.size_threshold = 4096; reserved_workers = 16 } );
    ];
  Table.print t;
  paper
    "Minos re-balances large requests in software with CRCW spinlocks; the paper \
     notes d-CREW's EWT can provide the same size-awareness with lightweight \
     concurrency control. Here small-item writes stop queueing behind 17 us \
     transfers once large items are confined to a reserved pool."

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.                *)

let ablation scale =
  section "Ablation — JBSQ bound k (WI_uni f_wr=50% @ 80 MRPS)";
  let n = Figures.n_requests scale in
  let wl = Config.workload_wi_uni ~write_fraction:0.5 in
  let t = Table.create ~columns:[ ("k", Table.Right); ("p99 ns", Table.Right) ] in
  List.iter
    (fun k ->
      let base = Config.model Config.Dcrew in
      let cfg =
        { base with Server.crew = { base.Server.crew with C4_crew.Config.jbsq_bound = k } }
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl ~rate:0.08 in
      Table.add_row t [ Table.cell_i k; Table.cell_f ~decimals:0 p.Experiment.p99_ns ])
    [ 1; 2; 4; 8 ];
  Table.print t;

  section "Ablation — compaction scan depth (RW_sk gamma=1.25 f_wr=5% @ 70 MRPS)";
  let wl_sk = Config.workload_rw_sk ~theta:1.25 ~write_fraction:0.05 in
  let t =
    Table.create
      ~columns:
        [ ("depth", Table.Right); ("p99 ns", Table.Right); ("achieved MRPS", Table.Right) ]
  in
  List.iter
    (fun depth ->
      let comp =
        { C4_crew.Config.default_compaction with C4_crew.Config.scan_depth = depth }
      in
      let base = Config.full Config.Comp in
      let cfg =
        { base with Server.crew = { base.Server.crew with C4_crew.Config.compaction = Some comp } }
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl_sk ~rate:0.07 in
      Table.add_row t
        [
          Table.cell_i depth;
          Table.cell_f ~decimals:0 p.Experiment.p99_ns;
          Table.cell_f ~decimals:1 p.Experiment.achieved_mrps;
        ])
    [ 2; 8; 32 ];
  Table.print t;

  section "Ablation — window deadline policy (same workload @ 70 MRPS)";
  let t =
    Table.create
      ~columns:
        [
          ("anchor", Table.Left);
          ("budget", Table.Right);
          ("p99 ns", Table.Right);
          ("achieved MRPS", Table.Right);
        ]
  in
  List.iter
    (fun (anchor, budget) ->
      let comp =
        {
          C4_crew.Config.default_compaction with
          C4_crew.Config.deadline_from_arrival = anchor;
          window_budget_fraction = budget;
        }
      in
      let base = Config.full Config.Comp in
      let cfg =
        { base with Server.crew = { base.Server.crew with C4_crew.Config.compaction = Some comp } }
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl_sk ~rate:0.07 in
      Table.add_row t
        [
          (if anchor then "arrival" else "clock");
          Table.cell_f budget;
          Table.cell_f ~decimals:0 p.Experiment.p99_ns;
          Table.cell_f ~decimals:1 p.Experiment.achieved_mrps;
        ])
    [ (false, 0.5); (false, 1.0); (true, 0.5); (true, 1.0) ];
  Table.print t;

  section "Ablation — adaptive early close at low load (Fig. 13 workload @ 20 MRPS)";
  let wl13 = Config.workload_rw_sk ~theta:0.99 ~write_fraction:0.5 in
  let t = Table.create ~columns:[ ("adaptive", Table.Left); ("p99 ns", Table.Right) ] in
  List.iter
    (fun adaptive ->
      let comp =
        { C4_crew.Config.default_compaction with C4_crew.Config.adaptive_close = adaptive }
      in
      let base = Config.full Config.Comp in
      let cfg =
        { base with Server.crew = { base.Server.crew with C4_crew.Config.compaction = Some comp } }
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl13 ~rate:0.02 in
      Table.add_row t
        [ string_of_bool adaptive; Table.cell_f ~decimals:0 p.Experiment.p99_ns ])
    [ false; true ];
  Table.print t;
  paper "the paper proposes early close as the fix for Comp's low-load 99th% jump.";

  section "Ablation — EWT capacity (d-CREW, f_wr=85% @ 90 MRPS)";
  let wl85 = Config.workload_wi_uni ~write_fraction:0.85 in
  let t =
    Table.create
      ~columns:
        [ ("capacity", Table.Right); ("p99 ns", Table.Right); ("EWT drops", Table.Right) ]
  in
  List.iter
    (fun cap ->
      let base = Config.model Config.Dcrew in
      let cfg =
        { base with Server.crew = { base.Server.crew with C4_crew.Config.ewt_capacity = cap } }
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl85 ~rate:0.09 in
      Table.add_row t
        [
          Table.cell_i cap;
          Table.cell_f ~decimals:0 p.Experiment.p99_ns;
          Table.cell_i p.Experiment.result.Server.ewt_drops;
        ])
    [ 16; 64; 128 ];
  Table.print t;

  section "Ablation — sticky EWT mappings (Sec. 5.1 future work; WI_uni f_wr=50%, full-system)";
  let wl50 = Config.workload_wi_uni ~write_fraction:0.5 in
  let t =
    Table.create
      ~columns:
        [
          ("linger ns", Table.Right);
          ("p99 @60 MRPS", Table.Right);
          ("p99 @80 MRPS", Table.Right);
        ]
  in
  List.iter
    (fun delay ->
      let cfg = { (Config.full Config.Dcrew) with Server.ewt_release_delay = delay } in
      let p99 rate =
        (Experiment.run_at ~n_requests:n cfg ~workload:wl50 ~rate).Experiment.p99_ns
      in
      Table.add_row t
        [
          Table.cell_f ~decimals:0 delay;
          Table.cell_f ~decimals:0 (p99 0.06);
          Table.cell_f ~decimals:0 (p99 0.08);
        ])
    [ 0.0; 300.0; 1000.0; 3000.0 ];
  Table.print t;
  paper
    "releasing on completion maximises balancing; lingering mappings trade that \
     for write locality (fewer ownership migrations) — the paper leaves the \
     sweet spot as future work.";

  section "Ablation — DVFS boost for the overloaded writer (Sec. 8, MICA's remedy)";
  let wl_sk2 = Config.workload_rw_sk ~theta:1.25 ~write_fraction:0.05 in
  (* The hottest partition's static owner is the boosted core. *)
  let hot_worker =
    let gen = C4_workload.Generator.create wl_sk2 ~seed:1 in
    C4_workload.Generator.hottest_partition gen mod Server.default_config.Server.n_workers
  in
  let t =
    Table.create
      ~columns:
        [
          ("system", Table.Left);
          ("p99 @55 MRPS", Table.Right);
          ("achieved MRPS", Table.Right);
          ("hot svc ns", Table.Right);
        ]
  in
  List.iter
    (fun (label, base, boost) ->
      let cfg = Config.full base in
      let cfg =
        if boost then { cfg with Server.boosted_workers = [ (hot_worker, 1.5) ] } else cfg
      in
      let p = Experiment.run_at ~n_requests:n cfg ~workload:wl_sk2 ~rate:0.055 in
      let m = p.Experiment.result.Server.metrics in
      Table.add_row t
        [
          label;
          Table.cell_f ~decimals:0 p.Experiment.p99_ns;
          Table.cell_f ~decimals:1 p.Experiment.achieved_mrps;
          Table.cell_f ~decimals:0
            ((Metrics.worker_mean_service m).(Metrics.hottest_worker m));
        ])
    [
      ("Baseline", Config.Baseline, false);
      ("Baseline + 1.5x DVFS", Config.Baseline, true);
      ("Comp", Config.Comp, false);
      ("Comp + 1.5x DVFS", Config.Comp, true);
    ];
  Table.print t;
  paper
    "frequency scaling alone is insufficient to absorb RW_sk's imbalance \
     (Sec. 8) but composes with compaction for further gains.";

  section "Ablation — partition granularity under d-CREW (f_wr=50% @ 85 MRPS)";
  let t = Table.create ~columns:[ ("partitions", Table.Right); ("p99 ns", Table.Right) ] in
  List.iter
    (fun parts ->
      let wl =
        {
          (Config.workload_wi_uni ~write_fraction:0.5) with
          C4_workload.Generator.n_partitions = parts;
        }
      in
      let p =
        Experiment.run_at ~n_requests:n (Config.model Config.Dcrew) ~workload:wl ~rate:0.085
      in
      Table.add_row t [ Table.cell_i parts; Table.cell_f ~decimals:0 p.Experiment.p99_ns ])
    [ 256; 1024; 8192; 65536 ];
  Table.print t;
  paper "coarser partitions create more false exclusivity (Sec. 5.1)."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the primitives whose costs parameterise
   the model — notably T_c (private-log append) versus T_b (a full
   store write), the ratio Eqn. (1) feeds on. *)

(* Minor words per call of a row's closure: the [Gc.minor_words] delta
   over a fixed-count loop. On OCaml 5 the counter reads the calling
   domain's own allocation pointer, so the figure is exact. *)
let words_per_call elt =
  let open Bechamel in
  let (Test.V { fn; kind; allocate; free }) = Test.Elt.fn elt in
  match kind with
  | Test.Multiple -> None
  | Test.Uniq ->
    let n = 10_000 and f = fn `Init and resource = allocate () in
    let v = Test.Uniq.prj resource in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f v))
    done;
    let words = Gc.minor_words () -. before in
    free resource;
    Some (words /. float_of_int n)

(* Each row in ns per run (Bechamel) and in minor words per call
   ([words_per_call], run after Bechamel's samples): the words are the
   allocation budget a serving-path primitive spends per call. *)
let measure ?stabilize tests =
  let open Bechamel in
  let open Toolkit in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let clock = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ?stabilize ()
  in
  let grouped = Test.make_grouped ~name:"c4" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ clock ] grouped in
  let merged = Analyze.merge ols [ clock ] [ Analyze.all ols clock raw ] in
  let words =
    List.map (fun elt -> (Test.Elt.name elt, words_per_call elt)) (Test.elements grouped)
  in
  let estimate name =
    match Hashtbl.find_opt merged (Measure.label clock) with
    | None -> None
    | Some tbl -> (
      match Option.map Analyze.OLS.estimates (Hashtbl.find_opt tbl name) with
      | Some (Some [ est ]) -> Some est
      | _ -> None)
  in
  let width = List.fold_left (fun acc (name, _) -> max acc (String.length name)) 50 words in
  List.concat_map
    (fun (name, w) ->
      let cell = function Some e -> Printf.sprintf "%10.1f" e | None -> "         -" in
      let ns = estimate name in
      Printf.printf "  %-*s %s ns/op %s words/op\n" width name (cell ns) (cell w);
      Option.to_list (Option.map (fun e -> (name, e)) ns)
      @ Option.to_list (Option.map (fun e -> (name ^ " [minor words]", e)) w))
    (List.sort compare words)

(* The store at uniform-read's scale: 400k keys of 512 B in serve's
   partitioning (4096 buckets over 64 partitions), read and overwritten
   at uniformly random keys so the index's cache behaviour shows, plus
   the cost of inserting a key the store has never held (growth
   included). Measured after the other rows, so their heap stays small,
   and without Bechamel's per-sample [Gc.compact]: compacting a 200 MB
   heap before every sample leaves each one too short and cache-cold. *)
(* What a server's GET does inside the seqlock read: copy the slot into
   its own buffer. Top-level, so passing it allocates no closure. *)
let copy_into v dst =
  Bytes.blit v 0 dst 0 (Bytes.length v);
  Bytes.length v

let store_at_scale ~value =
  let open Bechamel in
  let n_keys = 400_000 in
  let store = C4_kvs.Store.create ~n_buckets:4096 ~n_partitions:64 () in
  for key = 0 to n_keys - 1 do
    C4_kvs.Store.set store ~key ~value
  done;
  let uniform =
    let rng = C4_dsim.Rng.create 7 in
    Array.init (1 lsl 20) (fun _ -> C4_dsim.Rng.int rng n_keys)
  in
  let i = ref 0 in
  let next_key () =
    i := (!i + 1) land (Array.length uniform - 1);
    uniform.(!i)
  in
  let fresh = C4_kvs.Store.create ~n_buckets:4096 ~n_partitions:64 () in
  let fresh_key = ref 0 and small = Bytes.make 8 'f' in
  [
    Test.make ~name:"store.get (400k uniform keys)"
      (Staged.stage (fun () -> ignore (C4_kvs.Store.get store ~key:(next_key ()))));
    (let dst = Bytes.create 1024 and retries = ref 0 in
     Test.make ~name:"store.read_into a buffer (400k uniform keys)"
       (Staged.stage (fun () ->
            ignore (C4_kvs.Store.read_into store ~key:(next_key ()) ~retries copy_into dst))));
    (* The same reads a batch at a time, as a server serves a round:
       hint every slot of the batch, then every value, then read. *)
    (let dst = Bytes.create 1024 and retries = ref 0 in
     let batch = Array.make 32 0 and pos = ref 32 in
     Test.make ~name:"store.read_into a buffer (400k uniform keys, batch of 32 prefetched)"
       (Staged.stage (fun () ->
            if !pos = Array.length batch then begin
              for j = 0 to Array.length batch - 1 do
                batch.(j) <- next_key ();
                C4_kvs.Store.prefetch_slot store ~key:batch.(j)
              done;
              for j = 0 to Array.length batch - 1 do
                C4_kvs.Store.prefetch_value store ~key:batch.(j)
              done;
              pos := 0
            end;
            let key = batch.(!pos) in
            incr pos;
            ignore (C4_kvs.Store.read_into store ~key ~retries copy_into dst))));
    Test.make ~name:"store.set (400k uniform keys)"
      (Staged.stage (fun () -> C4_kvs.Store.set store ~key:(next_key ()) ~value));
    Test.make ~name:"store.set (insert a fresh key)"
      (Staged.stage (fun () ->
           incr fresh_key;
           C4_kvs.Store.set fresh ~key:!fresh_key ~value:small));
  ]

let microbench () =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let store = C4_kvs.Store.create ~n_buckets:4096 ~n_partitions:256 () in
  let value = Bytes.make 512 'v' in
  for key = 0 to 999 do
    C4_kvs.Store.set store ~key ~value
  done;
  let log = C4_kvs.Compaction_log.create () in
  C4_kvs.Compaction_log.open_window log ~key:7 ~now:0.0 ~expires_at:infinity;
  let rng = C4_dsim.Rng.create 1 in
  let zipf = C4_workload.Zipf.create ~n:100_000 ~theta:0.99 rng in
  let zipf_alias = C4_workload.Zipf.create ~method_:`Alias ~n:100_000 ~theta:0.99 rng in
  let heap = C4_dsim.Heap.create () in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"store.set (T_b: full KVS write)"
        (Staged.stage (fun () ->
             incr counter;
             C4_kvs.Store.set store ~key:(!counter mod 1000) ~value));
      Test.make ~name:"compaction append (T_c: private log)"
        (Staged.stage (fun () ->
             C4_kvs.Compaction_log.absorb log ~key:7
               {
                 C4_kvs.Compaction_log.request_id = 0;
                 sender = 0;
                 value = Bytes.empty;
                 buffered_at = 0.0;
               }));
      Test.make ~name:"store.get (reader + version check)"
        (Staged.stage (fun () -> ignore (C4_kvs.Store.get store ~key:123)));
      Test.make ~name:"zipf sample (CDF inversion)"
        (Staged.stage (fun () -> ignore (C4_workload.Zipf.sample zipf)));
      Test.make ~name:"zipf sample (alias method)"
        (Staged.stage (fun () -> ignore (C4_workload.Zipf.sample zipf_alias)));
      Test.make ~name:"event heap push+pop"
        (Staged.stage (fun () ->
             C4_dsim.Heap.push heap ~priority:(C4_dsim.Rng.float rng) ();
             ignore (C4_dsim.Heap.pop heap)));
      Test.make ~name:"fnv1a hash (16B key)"
        (Staged.stage (fun () -> ignore (C4_kvs.Hash.fnv1a "0123456789abcdef")));
      (* The per-update cost a serving-path metric pays: a counter is
         one atomic add on the domain's own cell, a histogram one
         uncontended per-domain shard lock around the update. *)
      (let reg = C4_obs.Registry.create ~thread_safe:true () in
       let c = C4_obs.Registry.counter reg "bench.ops" in
       Test.make ~name:"registry.incr (thread-safe)"
         (Staged.stage (fun () -> C4_obs.Registry.incr c)));
      (let reg = C4_obs.Registry.create ~thread_safe:true () in
       let h = C4_obs.Registry.histogram reg "bench.lat_ns" in
       Test.make ~name:"registry.observe (thread-safe)"
         (Staged.stage (fun () -> C4_obs.Registry.observe h 1234.0)));
      (let wire = C4_net.Wire.create () in
       let req =
         {
           C4_net.Wire.id = 1;
           op = C4_net.Wire.Set;
           key = 12345;
           token = Some 99;
           trace = None;
           value;
         }
       in
       Test.make ~name:"wire encode (SET, 512B)"
         (Staged.stage (fun () -> ignore (C4_net.Wire.encode_request wire req))));
      (let wire = C4_net.Wire.create () in
       let frame =
         C4_net.Wire.encode_request wire
           {
             C4_net.Wire.id = 1;
             op = C4_net.Wire.Set;
             key = 12345;
             token = Some 99;
             trace = None;
             value;
           }
       in
       let decoder = C4_net.Wire.Decoder.create wire in
       let view = C4_net.Wire.view () in
       Test.make ~name:"wire feed+decode in place (SET, 512B)"
         (Staged.stage (fun () ->
              C4_net.Wire.Decoder.feed decoder frame ~off:0 ~len:(Bytes.length frame);
              match C4_net.Wire.Decoder.next decoder with
              | C4_net.Wire.Decoder.Frame ->
                ignore
                  (C4_net.Wire.decode_into wire view (C4_net.Wire.Decoder.buffer decoder)
                     ~off:(C4_net.Wire.Decoder.body_off decoder)
                     ~len:(C4_net.Wire.Decoder.body_len decoder))
              | C4_net.Wire.Decoder.Awaiting | C4_net.Wire.Decoder.Corrupt -> assert false)));
      (let wire = C4_net.Wire.create () in
       let buf = Bytes.create 4096 in
       let hl = C4_net.Wire.response_header_len wire in
       Test.make ~name:"wire response into a buffer (GET, 512B)"
         (Staged.stage (fun () ->
              C4_net.Wire.write_response_header wire buf ~off:0 ~id:1 ~status:C4_net.Wire.Ok
                ~timing_ns:1000 ~value_len:512;
              Bytes.blit value 0 buf hl 512)));
      (let wire = C4_net.Wire.create () in
       let frame =
         C4_net.Wire.encode_request wire
           {
             C4_net.Wire.id = 1;
             op = C4_net.Wire.Set;
             key = 12345;
             token = Some 99;
             trace = None;
             value;
           }
       in
       let decoder = C4_net.Wire.Decoder.create wire in
       Test.make ~name:"wire feed+decode (SET, 512B)"
         (Staged.stage (fun () ->
              C4_net.Wire.Decoder.feed decoder frame ~off:0
                ~len:(Bytes.length frame);
              match C4_net.Wire.Decoder.next_frame decoder with
              | `Frame body -> ignore (C4_net.Wire.decode_request wire body)
              | `Awaiting | `Corrupt _ -> assert false)));
    ]
  in
  let core = measure tests in
  core @ measure ~stabilize:false (store_at_scale ~value)

(* Append the microbench estimates to the perf-trajectory log (JSON
   Lines, same envelope as netbench's --bench-json records). *)
let append_microbench_json ~path estimates =
  let module Json = C4_obs.Json in
  C4_obs.Benchlog.append ~path
    (C4_obs.Benchlog.record ~kind:"microbench"
       ~config:[ ("quota_s", Json.Float 0.25); ("limit", Json.Int 2000) ]
       ~results:
         (List.map (fun (name, est) -> (name, Json.Float est)) estimates));
  Printf.printf "  appended %d estimates to %s\n" (List.length estimates) path

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("table2", table2);
    ("ewt", ewt);
    ("eqn1", eqn1);
    ("delegation", delegation);
    ("ewt-hw", ewt_hardware);
    ("cluster", cluster);
    ("size-aware", size_aware);
    ("ablation", ablation);
  ]

let () =
  let scale = ref `Quick in
  let only = ref [] in
  let json_path = ref None in
  let rec parse = function
    | [] -> ()
    | "smoke" :: rest ->
      scale := `Smoke;
      parse rest
    | "quick" :: rest ->
      scale := `Quick;
      parse rest
    | "full" :: rest ->
      scale := `Full;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | name :: rest ->
      only := name :: !only;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !only with
    | [] -> all_experiments
    | names -> List.filter (fun (n, _) -> List.mem n names) all_experiments
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf "C-4 evaluation reproduction — scale: %s\n"
    (match !scale with `Smoke -> "smoke" | `Quick -> "quick" | `Full -> "full");
  List.iter (fun (_, f) -> f !scale) selected;
  if !only = [] || List.mem "micro" !only then begin
    let estimates = microbench () in
    Option.iter (fun path -> append_microbench_json ~path estimates) !json_path
  end;
  Printf.printf "\nTotal: %.1fs\n" (Unix.gettimeofday () -. t0)
