(* Clocks, order statistics, scratch directories and result JSON shared
   by every workload. *)

module Clock = Ffault_telemetry.Clock
module Json = Ffault_campaign.Json

let now_ns = Clock.now_ns
let secs ns = Clock.ns_to_s ns
let since_s t0 = secs (now_ns () - t0)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.
let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

(* Pool domains and dist workers: one per core, never oversubscribed. *)
let nproc () = Ffault_runtime.Runner.recommended_domains ()

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p = Ffault_campaign.Checkpoint.mkdir_p

(* Everything a run writes lives under [_build/perfbench] of the
   directory it runs from, so no run can overwrite a committed file. *)
let out_dir = Filename.concat "_build" "perfbench"

let fresh_dir tag =
  let d = Filename.concat out_dir (Fmt.str "%s-%d" tag (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Workload seeds are 64-bit; campaign seeds derive from them so the same
   seed gives the same inputs. *)
let derived_seeds seed k =
  let rng = Ffault_prng.Rng.make ~seed in
  List.init k (fun _ -> Ffault_prng.Rng.next_seed rng)

exception Gate of string

let gate fmt = Fmt.kstr (fun m -> raise (Gate m)) fmt
