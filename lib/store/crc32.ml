external digest : string -> int = "wqi_crc32_digest" [@@noalloc]
external portable_digest : string -> int = "wqi_crc32_portable_digest"
  [@@noalloc]
external accelerated : unit -> bool = "wqi_crc32_accelerated" [@@noalloc]
