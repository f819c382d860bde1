(* Exhaustively explore every protocol model (seqlock, store-table
   grow, EWT, flow control, channel, the home hop's coalesced wake,
   promise, crew core, pin words, compaction window) plus
   their seeded-bug variants, and replay one counterexample end-to-end
   through the linearizability checker. This is the quick "is the correctness
   tooling alive" demo; the full assertions live in test/test_check.ml. *)

module Models = C4_check.Models
module Sched = C4_check.Sched
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

let run ~expect_violation packed =
  let outcome = Models.explore ~preemption_bound:64 packed in
  Printf.printf "%-26s schedules=%-6d steps=%-7d %s\n" (Models.name packed)
    outcome.Sched.schedules outcome.Sched.steps_executed
    (match outcome.Sched.violation with
    | None -> "all interleavings hold"
    | Some v ->
      Printf.sprintf "counterexample in %d steps: %s" (List.length v.Sched.schedule)
        (match String.index_opt v.Sched.reason '\n' with
        | Some i -> String.sub v.Sched.reason 0 i
        | None -> v.Sched.reason));
  (match (expect_violation, outcome.Sched.violation) with
  | false, Some _ -> failwith "unexpected violation in a correct model"
  | true, None -> failwith "seeded bug not found"
  | _ -> ());
  outcome

let () =
  List.iter
    (fun p -> ignore (run ~expect_violation:false p))
    [
      Models.seqlock ();
      Models.store_grow ();
      Models.ewt ();
      Models.flow_control ();
      Models.channel ();
      Models.home_wake ();
      Models.promise ();
      Models.crew_core ();
      Models.pin_words ();
      fst (Models.compaction ());
    ];
  List.iter
    (fun p -> ignore (run ~expect_violation:true p))
    [
      Models.seqlock ~broken:Models.No_write_end ();
      Models.seqlock ~broken:Models.Unlocked_writer ();
      Models.seqlock ~broken:Models.Second_writer ();
      Models.store_grow ~broken:Models.Split_publish ();
      Models.ewt ~broken:Models.Raising_response ();
      Models.flow_control ~broken:Models.Unmatched_release ();
      Models.channel ~broken:Models.Pop_ignores_close ();
      Models.home_wake ~broken:Models.Clear_after_drain ();
      Models.promise ~broken:Models.Two_resolvers ();
      Models.crew_core ~broken:Models.Strict_release ();
      Models.pin_words ~broken:Models.Unstamped_release ();
      Models.pin_words ~broken:Models.Split_admit ();
    ];
  (* Counterexample -> replay -> linearizability checker, end to end. *)
  let packed, history = Models.compaction ~broken:Models.Early_ack () in
  let outcome = run ~expect_violation:true packed in
  let v = Option.get outcome.Sched.violation in
  (match Models.replay packed v.Sched.schedule with
  | Ok () -> failwith "replay did not reproduce the counterexample"
  | Error _ -> ());
  let h = History.of_ops (List.rev !history) in
  Printf.printf "\nreplayed early-ack history (%d ops) -> %s:\n"
    (History.length h)
    (match Lin.check ~initial:0 h with
    | Lin.Linearizable _ -> "LINEARIZABLE (unexpected!)"
    | Lin.Not_linearizable -> "not linearizable, as the paper predicts");
  Format.printf "%a@." History.pp h
