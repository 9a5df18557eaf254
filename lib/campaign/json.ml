type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

(* The scalar writers are shared by the tree printer below and by the
   direct record encoder ([Journal.to_line]), so the two emit the same
   bytes by construction. They write into the caller's buffer without
   building intermediate strings. *)

(* "00" "01" ... "99": two digits per division by 100 *)
let digit_pairs =
  String.init 200 (fun i ->
      let r = i / 2 in
      Char.chr (48 + if i land 1 = 0 then r / 10 else r mod 10))

let add_pair b r =
  Buffer.add_char b digit_pairs.[2 * r];
  Buffer.add_char b digit_pairs.[(2 * r) + 1]

(* Digits of [n <= 0] without its sign: negative space holds min_int. *)
let rec add_neg_digits b n =
  if n > -10 then Buffer.add_char b (Char.chr (48 - n))
  else if n > -100 then add_pair b (-n)
  else begin
    add_neg_digits b (n / 100);
    add_pair b (-(n mod 100))
  end

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* Exactly [width] digits of [0 <= v < 10^width], zero-padded. *)
let rec add_padded b v width =
  if width >= 2 then begin
    add_padded b (v / 100) (width - 2);
    add_pair b (v mod 100)
  end
  else if width = 1 then Buffer.add_char b (Char.chr (48 + v))

let add_int64 b v =
  if Int64.compare v (Int64.of_int min_int) >= 0 && Int64.compare v (Int64.of_int max_int) <= 0
  then add_int b (Int64.to_int v)
  else begin
    (* |v| > max_int >= 10^18: the quotient carries the sign and is non-zero *)
    add_int b (Int64.to_int (Int64.div v 1_000_000_000L));
    add_padded b (abs (Int64.to_int (Int64.rem v 1_000_000_000L))) 9
  end

(* Exact powers of ten (every 10^k with k <= 22 is a double). *)
let pow10 = function
  | 0 -> 1. | 1 -> 1e1 | 2 -> 1e2 | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6 | 7 -> 1e7
  | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | 12 -> 1e12 | 13 -> 1e13 | 14 -> 1e14
  | 15 -> 1e15 | 16 -> 1e16 | 17 -> 1e17 | 18 -> 1e18 | 19 -> 1e19 | 20 -> 1e20
  | 21 -> 1e21 | 22 -> 1e22 | k -> invalid_arg (Printf.sprintf "Json.pow10 %d" k)

let ipow10 k = int_of_float (pow10 k)

(* [Printf "%.17g"] without Printf, for a non-integral [a = |x|] in
   [1e-4, 1e15): the range of every probability a campaign grid writes.
   With [e] the decimal exponent, [a * 10^(16-e)] is a product of two
   doubles (10^k is exact for k <= 22), so [hi + lo] from an FMA is its
   exact value; rounding that to the 17-digit integer [n], ties to even
   as printf does, gives printf's significant digits. In this range [%g]
   always picks fixed notation and drops trailing zeros. The tests hold
   this against Printf on random and edge-case floats. *)
let add_g17_fixed b x a =
  let rec scale e =
    let p = pow10 (16 - e) in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    if hi < 1e16 || (hi = 1e16 && lo < 0.) then scale (e - 1)
    else if hi > 1e17 || (hi = 1e17 && lo >= 0.) then scale (e + 1)
    else
      let fl = Float.floor lo in
      let base = int_of_float hi + int_of_float fl in
      let frac = lo -. fl in
      let n = if frac > 0.5 || (frac = 0.5 && base land 1 = 1) then base + 1 else base in
      (* rounding up to 10^17 carries into the next decade *)
      if n = 100_000_000_000_000_000 then emit (ipow10 16) (e + 1) else emit n e
  and emit n e =
    (* value = n / 10^(16-e); e < 0 leaves no integer digits *)
    let frac_width = 16 - e in
    let ip, fp = if e < 0 then (0, n) else (n / ipow10 frac_width, n mod ipow10 frac_width) in
    if Float.sign_bit x then Buffer.add_char b '-';
    add_int b ip;
    if fp <> 0 then begin
      let rec strip fp w = if fp mod 10 = 0 then strip (fp / 10) (w - 1) else (fp, w) in
      let fp, w = strip fp frac_width in
      Buffer.add_char b '.';
      add_padded b fp w
    end
  in
  scale (int_of_float (Float.floor (Float.log10 a)))

let add_float b f =
  let a = Float.abs f in
  if Float.is_integer f && a < 1e15 then begin
    (* "%.1f" of an integral value: its digits, sign bit included (-0.0) *)
    if Float.sign_bit f then Buffer.add_char b '-';
    add_int b (int_of_float a);
    Buffer.add_string b ".0"
  end
  else if a >= 1e-4 && a < 1e15 then add_g17_fixed b f a
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

(* The first index at or after [i] holding a byte that is '"', '\\' or
   a control character (< 0x20), or [String.length s]. Eight bytes per
   step: each test below is non-zero iff some byte of [w] is zero (after
   the xor) or below 0x20, so a clear word holds none of the three. *)
let rec plain_until s i =
  if i + 8 > String.length s then plain_bytes s i
  else
    let w = String.get_int64_le s i in
    let q = Int64.logxor w 0x2222222222222222L and bs = Int64.logxor w 0x5c5c5c5c5c5c5c5cL in
    let hits =
      Int64.logor
        (Int64.logor
           (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
           (Int64.logand (Int64.sub bs 0x0101010101010101L) (Int64.lognot bs)))
        (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w))
    in
    if Int64.equal (Int64.logand hits 0x8080808080808080L) 0L then plain_until s (i + 8)
    else plain_bytes s i

and plain_bytes s i =
  if i < String.length s then
    match s.[i] with '"' | '\\' | '\000' .. '\031' -> i | _ -> plain_bytes s (i + 1)
  else i

let hex = "0123456789abcdef"

let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  (* copy runs that need no escape in one blit each *)
  let rec go start =
    let i = plain_until s start in
    Buffer.add_substring b s start (i - start);
    if i < n then begin
      (match s.[i] with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]);
      go (i + 1)
    end
  in
  go 0;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Str s -> add_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parsing: plain recursive descent ---- *)

exception Parse_error of string

(* Parser state. The parser is top-level functions over it, so a parse
   allocates little beyond the values it returns. *)
type st = { s : string; n : int; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

(* the next character is [c] *)
let at st c = st.pos < st.n && st.s.[st.pos] = c

let rec skip_ws st =
  if st.pos < st.n then
    match st.s.[st.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        st.pos <- st.pos + 1;
        skip_ws st
    | _ -> ()

let expect st c = if at st c then st.pos <- st.pos + 1 else fail st (Printf.sprintf "expected %C" c)

let literal st word v =
  let l = String.length word in
  if st.pos + l <= st.n && String.sub st.s st.pos l = word then begin
    st.pos <- st.pos + l;
    v
  end
  else fail st (Printf.sprintf "expected %s" word)

(* One escape, the backslash already consumed, decoded into [b]. *)
let unescape st b =
  if st.pos >= st.n then fail st "unterminated escape";
  let e = st.s.[st.pos] in
  st.pos <- st.pos + 1;
  match e with
  | '"' | '\\' | '/' -> Buffer.add_char b e
  | 'n' -> Buffer.add_char b '\n'
  | 't' -> Buffer.add_char b '\t'
  | 'r' -> Buffer.add_char b '\r'
  | 'b' -> Buffer.add_char b '\b'
  | 'f' -> Buffer.add_char b '\012'
  | 'u' ->
      if st.pos + 4 > st.n then fail st "truncated \\u escape";
      let code =
        try int_of_string ("0x" ^ String.sub st.s st.pos 4)
        with Failure _ -> fail st "bad \\u escape"
      in
      st.pos <- st.pos + 4;
      (* encode the code point as UTF-8 (BMP only; our own encoder never
         emits \u for non-control characters) *)
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
  | _ -> fail st "bad escape"

(* The string body from [start]: runs without a backslash are copied in
   one blit each, and a string with no escape at all is one [String.sub]. *)
let rec string_body st b start i =
  let i = plain_until st.s i in
  if i >= st.n then begin
    st.pos <- st.n;
    fail st "unterminated string"
  end
  else
    match st.s.[i] with
    | '"' -> (
        st.pos <- i + 1;
        match b with
        | None -> String.sub st.s start (i - start)
        | Some b ->
            Buffer.add_substring b st.s start (i - start);
            Buffer.contents b)
    | '\\' ->
        let b = match b with Some b -> b | None -> Buffer.create (i - start + 16) in
        Buffer.add_substring b st.s start (i - start);
        st.pos <- i + 1;
        unescape st b;
        string_body st (Some b) st.pos st.pos
    | _ -> string_body st b start (i + 1) (* a raw control character *)

let parse_string st =
  expect st '"';
  string_body st None st.pos st.pos

let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* The value of the digits from [i]; leaves [pos] after them. *)
let rec int_digits st i acc =
  match if i < st.n then st.s.[i] else ' ' with
  | '0' .. '9' as c -> int_digits st (i + 1) ((acc * 10) + Char.code c - 48)
  | _ ->
      st.pos <- i;
      acc

let parse_number st =
  let start = st.pos in
  (* fast path: -?[0-9]{1,18} fits an int, so no substring or
     int_of_string is needed; anything else takes the general path *)
  let first = if st.s.[start] = '-' then start + 1 else start in
  let acc = int_digits st first 0 in
  let count = st.pos - first in
  if count >= 1 && count <= 18 && not (st.pos < st.n && is_number_char st.s.[st.pos]) then
    Int (if first > start then -acc else acc)
  else begin
    st.pos <- start;
    let is_float = ref false in
    while st.pos < st.n && is_number_char st.s.[st.pos] do
      (match st.s.[st.pos] with '.' | 'e' | 'E' -> is_float := true | _ -> ());
      st.pos <- st.pos + 1
    done;
    let text = String.sub st.s start (st.pos - start) in
    if !is_float then
      match float_of_string_opt text with Some f -> Float f | None -> fail st "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with Some f -> Float f | None -> fail st "bad number")
  end

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.n then fail st "unexpected end of input";
  match st.s.[st.pos] with
  | '"' -> Str (parse_string st)
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if at st ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else List (items st [ parse_value st ])
  | '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if at st '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else
        let first = parse_field st in
        Obj (fields st [ first ])
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

(* the rest of an array, after its first item; [acc] is reversed *)
and items st acc =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    let v = parse_value st in
    items st (v :: acc)
  end
  else begin
    expect st ']';
    List.rev acc
  end

and parse_field st =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  (k, v)

and fields st acc =
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    let f = parse_field st in
    fields st (f :: acc)
  end
  else begin
    expect st '}';
    List.rev acc
  end

let of_string s =
  let st = { s; n = String.length s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> st.n then Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

(* Keys compare with [String.equal], not polymorphic compare. The first
   binding of a duplicated key wins. *)
let member key = function
  | Obj fields -> List.find_map (fun (k, v) -> if String.equal k key then Some v else None) fields
  | _ -> None

(* An integral float converts only inside the int range: [int_of_float]
   is unspecified outside it, so 1e300 must not become some int.
   [min_int] is a power of two, hence exact as a float. *)
let get_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int ->
      Some (int_of_float f)
  | _ -> None

let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let get_str = function Str s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List l -> Some l | _ -> None
