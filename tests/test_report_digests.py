"""Golden digests of the report JSON.

Each entry is the SHA-256 of
json.dumps(reports_json(full_report(spec)), sort_keys=True) for one spec of
the benchmark workloads (gamma, rank, isogeny), as recorded with the
benchmark's first baseline, or of an adjoint catalogue type that no workload
covers, so that every adjoint catalogue report is pinned.  A change that
alters a report on purpose edits this table, in the open."""

from __future__ import annotations

import hashlib
import json

import pytest

from supercusp.correspond import full_report, reports_json

SPEC_DIGESTS = {
    # gamma
    "A4:adjoint:*":
        "b2bdda715a0d95851a002588855217a7a5d87b461436a8421812657d1e1a97bc",
    "A5:adjoint:*":
        "6f020fab26782979ca5b2e16140867b863bc280c38d36478d53b38bff619fe73",
    "A6:adjoint:*":
        "b9303ab74eb71ed2d851c4250b0ea67d85dbaf3cd12482d743ca1f805bd9499e",
    "A7:adjoint:*":
        "8564fce4f08a73ea1c4e4606c4ebefe744de2ed7a9b267d6ea25ba9fe623c201",
    "E6:adjoint:*":
        "7d10403ca2db924084ff716134698673333a070d03fe3b356fe640e6bb264e11",
    "F4:adjoint:*":
        "1484d87ffd5f609df98ec0c0044898a4d816b4ed23c8ff24ef876068f2253bad",
    "G2:adjoint:*":
        "20539a202e3a130dcc10960697e2f7d080ae77bb52404f52aefbd6721a094d37",
    # rank
    "2D10:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D9:adjoint:*":
        "b37679f80cb68f4ef98adc0fc59fc676754c9f7bbac6d9910969b3ef11d16cb0",
    "B10:adjoint:*":
        "80ee65b3cfffaa11a1a470329e69b32dd637fa22df7226637100ec24171eb5d6",
    "B9:adjoint:*":
        "47f4ae7e49208160f441d60ad5d31bdef76eeef6bada3077492b7350c8829445",
    "C10:adjoint:*":
        "5d48f6d479847855d934f87720c5cbf77973cddf241cbeffff675c8ae247d874",
    "C9:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D10:adjoint:*":
        "b278cfeaee9dee2b9979cc12914927859865abce583e762018f2f94ae820cf28",
    "D9:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    # isogeny
    "2A5:adjoint:*":
        "e74f2aeaa062377728f0a04c40ba79d8f2e2519a5e8319a1c184ef7cf5da81d7",
    "2A5:d2:*":
        "25fb97fd444169397e70cea0b058dca236ee591de4a24f75d0c2cc3a4f8d0145",
    "2A5:d3:*":
        "7cc34a1e8bc27cc0ee645c502778dcc9f88d98313ed8469cbca63fc253a579b1",
    "2A5:sc:*":
        "50103fa7e375c7bfd4a5c921f82770d301469219b43bfed729a0e456412d6769",
    "2A7:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2A7:d2:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2A7:d4:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2A7:sc:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2A9:adjoint:*":
        "9eca52afcaa7ec695703458fc845b8adca13b6660f41285c65b13d22246c8cb7",
    "2A9:d2:*":
        "f2ecd8ff14264acf7b22f1e429b646ec26ff2dbdcc33e3ef1be5b6776b555c8d",
    "2A9:d5:*":
        "28f5d6525386f1f7f9b262610724c86412251a7f94fc58c074136672a6441f75",
    "2A9:sc:*":
        "6783034010a21a0a7a914c6c1f3220b5c6d71595fe4418aa0baa74ab03ef557d",
    "2D4:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D4:sc:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D4:so:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D5:adjoint:*":
        "b20c160967d1ae51707cf955062b06c454cfaf446cc195f32ccd76ef87dfe6ec",
    "2D5:sc:*":
        "b191cc04457981fa49c8531e37146d24d314999a51113cf4eff9625cc56f1162",
    "2D5:so:*":
        "10a63855dd98b167d7fbc3a8c9247564542e714870b2356b83c005618382701b",
    "2D6:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D6:sc:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D6:so:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D7:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D7:sc:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D7:so:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2D8:adjoint:*":
        "0c36d1f71d148542344ed4ad161883c4e85b928080fcc8806f915107b893ba96",
    "2D8:sc:*":
        "5d62f07552c72fbdd350add0d1711ffa95a0a73c917022a5a9a33cb10c6b8ea7",
    "2D8:so:*":
        "26f922bd42a7560f1de13de56050f31d601942ae1da37948d26754fac40502a4",
    "2E6:adjoint:*":
        "e55c83373949c4a76fb5c279fab175770b6a17c9005e68dfe6cac0546193b1f0",
    "2E6:sc:*":
        "c5fb571cb7ff9f04987f5c9ba05e1c271612c19f656e8e1299d126ea1221b884",
    "3D4:adjoint:*":
        "e1f6f6e8f41eaa9daeaeedfef716f5ae1643a1135db628be9783d0abe4ceddbb",
    "3D4:sc:*":
        "ef18f70fabed24fb218a33cb80448e62b75a5053ffe5879dcd924f9cb8785b4f",
    "B7:adjoint:*":
        "d2055f3171a0a319d8a5d9321994b20511227faee7ceed46e301b97188ac5072",
    "B7:sc:*":
        "4656d28930e208e1819f3a94c4353c9fa73e0c70cb8e2c8af0ef333c3805539c",
    "C7:adjoint:*":
        "35d271a8f1a5c144b43474b6a83e63c6778b2b6b9974da93acfd95b8e5576f70",
    "C7:sc:*":
        "e6a9ddd86fd9f1c723b2cfcbd159bde438ae3896f5b3ec7b72def0f9f7fe872b",
    "D4:adjoint:*":
        "763f3cddcc5962191a6f2069a51dea82353fa82e9287ecb83a63167c6311874a",
    "D4:hs1:*":
        "5dbb53c4ab72c3e932174c27b93fcfa1b2a2e1707c9b4f1c6d90854e7a36d3ae",
    "D4:hs2:*":
        "1c8042181eb614e784fd34f4928e369f2bfcc55c9d702186c9191ac1ed65f744",
    "D4:sc:*":
        "e7c47ba0f2d5fa7d8d74fb239a7cb01285ba7eb5ac5536ef27dd32eb69f7b165",
    "D4:so:*":
        "ba2a3f4e8f1117a34d69865928427484a3b96a9686d988f36b56a8b0fc5131b9",
    "D5:adjoint:*":
        "2b8b1d1023be314df4ba3ec3b208c05cf13c29eb315e624f13b6751fc9ab41ab",
    "D5:sc:*":
        "e5e671e27df0a875b9ff7b516ba27942308be13a13db79256957e345aefcea5a",
    "D5:so:*":
        "2778965858ea266d7cb8a0fb0dc5f74f753964e31c45c29852c93ffabdbf3c27",
    "D6:adjoint:*":
        "755b2ca195f557a3f454b16de8075631dbe52f6939fd985e364e9f081284f0b6",
    "D6:hs1:*":
        "af5615df475c064b5fa96b423155a134fed5efdda214a01cf7f5292de18dee49",
    "D6:hs2:*":
        "0950b431e111f211d82ac5eb749d40b99e8bfe030cce098debc2f6b1ab719da9",
    "D6:sc:*":
        "90d206e622c09902ba589e5ca893cd0d246a6b9a3fa89fc6630640dcbf34bcbf",
    "D6:so:*":
        "57394f3cbf0b16284c723f26e7b1ced34ef41145702a1d458d48b43dbf445439",
    "D7:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D7:sc:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D7:so:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D8:adjoint:*":
        "46a54a8b7119c9aa76a9b29f387b3eff2fc47dad31383e2d75504b3367d9854e",
    "D8:hs1:*":
        "73b80e28bcb4938eb559114b4ea1d80b72a7e1475ed1e8895094c1c002c455dd",
    "D8:hs2:*":
        "8769a93569522e9466ae663e6571e0385644b0844be21e54a333d6a7e841d6cc",
    "D8:sc:*":
        "5d980f919b34ae8046a6d11f8dab80436928525028600663461123011173354d",
    "D8:so:*":
        "e6732ed40a489a200323ec19170c1d6cb3c6df35a63ee0458efc6f1b6fff99a3",
    # the rest of the adjoint catalogue (tests/test_casetable.py::catalogue)
    "2A10:adjoint:*":
        "7ca327319d0349b3f02806a6b152262ade808e7ba1e5b3cfcdfc85571f696039",
    "2A11:adjoint:*":
        "cda8a72f8a08575e02c625f2ca45f59ab475da3ebafd483598c5e945cc176ce4",
    "2A12:adjoint:*":
        "58c5c07e8213aa39f46f40483d3f6d81715311dea7f2f1978b1524b7a0f975c1",
    "2A2:adjoint:*":
        "fd366d1d0813c8a09f879d0b3ffa9b3c9fedd99f19953c3549465f4004158f81",
    "2A3:adjoint:*":
        "5ce80db18ced370819c01ba45bfb24b1c5eeafa81cd9ed32434a4528bd63da11",
    "2A4:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "2A6:adjoint:*":
        "979e27a6e46fc0e3824948827564df541e2a670931ff5ec0c666e6bb0a899238",
    "2A8:adjoint:*":
        "3708f4f6d8194855448da02077295fcb23e72d5eb10d7abd6eb71bb511265b02",
    "2D11:adjoint:*":
        "872302dd513b6dd8c7e37f45e3e5d64d32f39788aac1017ea37bbe8307fed5c5",
    "2D12:adjoint:*":
        "d37dc669dd7c33e1aa657ed00104fe605cc9b6f90eab68fc292fe592666633f2",
    "A10:adjoint:*":
        "404a60379dc40c56491ac8d7bff33059febed4da63e28b7f658b2756ed921622",
    "A11:adjoint:*":
        "97c2e2c4845f23c965c43cf4fc716b53cb743bbf2e13c010f4167c88818e550d",
    "A12:adjoint:*":
        "c20e9ac6df6a60db7f0e4edd7e7ef50adbe2b2f927b775e63cfee5c240217cc0",
    "A1:adjoint:*":
        "615f370772615348dcd920107546ad09978525fcca03409bd330e3955db1e503",
    "A2:adjoint:*":
        "597ee75e54dc842335c8566d88f94dd352c6b6e26dbd7bfcfcedcf76e6905b22",
    "A3:adjoint:*":
        "d3359ff5b1acccfcd0befc262633af3a9d283f68f2e01e17e05001b3319ae6fe",
    "A8:adjoint:*":
        "3d85f9ce5fc11f792ebbd54920c53c16b4221a8ae47f7d974db2d2cd88dd00eb",
    "A9:adjoint:*":
        "1bef282a33bd551c26331f404fd008156c3b8cac2901a9fb06043c3bb419007e",
    "B11:adjoint:*":
        "38a35ef8a2eaa1c45cf5522587e7fb6292690b730b8870a1cdc69619f56b5536",
    "B12:adjoint:*":
        "e92f8396df414c2368f9bb5f0befb92af82ad6467b24bbd1aa7fc9d467d3fc02",
    "B2:adjoint:*":
        "7a8bc703221561331baea301b4a1ecc672fa6206358dd6dee23269e6b5431292",
    "B3:adjoint:*":
        "c7e86762542bebe96379b81285bcdfa5c3641390784d547f7541b1457dcbf360",
    "B4:adjoint:*":
        "ee0b9e145f966f24f5eb801f84a7a06bf6aa77b4f176053837f26c6d2e4c2fba",
    "B5:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "B6:adjoint:*":
        "9381b96200624443a461bd2d586c1d5282fb176914786d6ebfed1463361d823e",
    "B8:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "C11:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "C12:adjoint:*":
        "92881352cb708ad9a421146365544957a94ee9248ed56ce06258e09555c1418c",
    "C2:adjoint:*":
        "f73ab377b41eef461c76eda28a196fc92a630c003e597503c8a360ed3eb6357c",
    "C3:adjoint:*":
        "cca524925719c501a91e91828f187b42428db1db4402ea68fcb57f66abcbc77f",
    "C4:adjoint:*":
        "2688740c0532612782f5a169fb499c0cff4035be3708f5ed4a4a236a66b3ec57",
    "C5:adjoint:*":
        "d6dd02d9ed014b5f2a709ca829a1a8bfd01d4a19d31fa9ac5801e8a371d86818",
    "C6:adjoint:*":
        "a31e8b07b2ee63dafef2a069b4c7c47c5498005b7109b5ba09461934e15683d3",
    "C8:adjoint:*":
        "ccc063d60182f2d1a7d16f62b975740a2af018ff5dc830315b3e676c93bd0479",
    "D11:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D12:adjoint:*":
        "47db4861644dd6426ce89a54b3088a769d2cf4d0d7023cb0781da628cf5dbcf3",
    "D3:adjoint:*":
        "b1b084551507dd4f9116eafd255f045c8e26242cea269faeb4c5c9f863394aff",
    "E7:adjoint:*":
        "96b37c5b6cb1a4f5be427ba603ea69a9994ceeab45cb5fc5c1215a151f718298",
    "E8:adjoint:*":
        "2240ab8fe1b9e71ddfc250dbe4a09fd9298a7e4f0750c13e2f7baf75042268ef",
}


@pytest.mark.parametrize("spec", sorted(SPEC_DIGESTS))
def test_report_digest(spec):
    text = json.dumps(reports_json(full_report(spec)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_DIGESTS[spec]
