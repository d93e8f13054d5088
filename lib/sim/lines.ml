type line = {
  no : int;
  text : string;
  (* Tokenised on first use: a journal whose entries are opaque to the
     decoder (the CVE stream's) never pays for splitting them. *)
  mutable lexed : bool;
  mutable words : string list;
  mutable fields : (string * string) list;
}

exception Malformed of string

let make ~no text = { no; text; lexed = false; words = []; fields = [] }
let number l = l.no
let text l = l.text

let fail l fmt =
  Printf.ksprintf
    (fun m -> raise (Malformed (Printf.sprintf "line %d: %s" l.no m)))
    fmt

let lex l =
  if not l.lexed then begin
    let words = ref [] and fields = ref [] in
    List.iter
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          fields :=
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
            :: !fields
        | None -> if tok <> "" then words := tok :: !words)
      (String.split_on_char ' ' l.text);
    l.words <- List.rev !words;
    l.fields <- List.rev !fields;
    l.lexed <- true
  end

let words l =
  lex l;
  l.words

let keyword l =
  match words l with w :: _ -> w | [] -> fail l "no keyword in %S" l.text

let opt l k =
  lex l;
  List.assoc_opt k l.fields

let str l k =
  match opt l k with Some v -> v | None -> fail l "missing field %S" k

let conv l k f =
  let v = str l k in
  match f v with Some x -> x | None -> fail l "bad value %S in field %S" v k

let int l k = conv l k int_of_string_opt
let int64 l k = conv l k Int64.of_string_opt
let float l k = conv l k float_of_string_opt
let bool l k = conv l k bool_of_string_opt
let flag l k = int l k <> 0
let ns l k =
  conv l k (fun v ->
      match int_of_string_opt v with
      | Some n when n >= 0 -> Some (Time.ns n)
      | _ -> None)

let checked l validate v =
  match validate v with
  | () -> v
  | exception Hypertp_error.Error e -> fail l "%s" (Hypertp_error.to_string e)

let decode ~magic ~what body s =
  let lines =
    List.filter (fun l -> String.trim l.text <> "")
      (List.mapi (fun i t -> make ~no:(i + 1) t) (String.split_on_char '\n' s))
  in
  match lines with
  | [] -> Error (Printf.sprintf "empty input: not a %s" what)
  | m :: rest ->
    if String.trim m.text <> magic then
      Error
        (Printf.sprintf "line %d: not a %s (bad magic line, want %S)" m.no what
           magic)
    else (
      try Ok (body rest) with
      | Malformed msg | Invalid_argument msg -> Error msg
      | Hypertp_error.Error e -> Error (Hypertp_error.to_string e))
