"""Golden outputs: the stdout and exit code of four commands on 23 algebras,
pinned by SHA-256, so that any change in a verdict, witness or printed byte
fails here.

The digest of a run is sha256 of its stdout followed by ``exit <code>\n``.
Regenerate a digest only for a change that means to alter that output.
"""

import hashlib

import pytest

from lefalg.catalog import names
from lefalg.cli import run

NAMES = names() + ["P1xP1xP1xP1xP1xP1xP1xP1", "Gr-3-8", "example3xP1",
                   "Gr-2-5xGr-2-5xP1", "example2xP1xP1"]
COMMANDS = ["report --json", "report", "verify", "check --hl"]

DIGESTS = {
    ("report --json", "example1"):
        "99726e1cbeca299038c5fdb1a6679e150880156e058d77721310b900798fb3d9",
    ("report", "example1"):
        "9a60fa91ca75ce411184b65e172e488f5277610b375ca47144fd076681eaada4",
    ("verify", "example1"):
        "cd0a7ac46f0dae80d8d56585457b80471bc0f7b81b55f8eb6d094ffbf86f202b",
    ("check --hl", "example1"):
        "1afe09d50ffc4d334891f0cfc5783dcf7950d92603d31364f9c913e5c34801ce",
    ("report --json", "example2"):
        "53c988529fc0e5fef5cb615ef86e1e3d45a6305456762db9b8e9052a408d7429",
    ("report", "example2"):
        "c6a7d5a52d58a28826f0eaad92e8d2c1cf13de0f080a7334baba749057915616",
    ("verify", "example2"):
        "7d0281a34adcf28579115fde755b86afd809e7e649511e867d92f445d1317e9f",
    ("check --hl", "example2"):
        "82515f9877e8aa7eaca78c78756e544887cea7626c7caefb8fcca3a1942614ba",
    ("report --json", "example3"):
        "311de2581cdd1e2a3c6dc51ab6db66219d407c5e8ad5d81aba9de5285f931518",
    ("report", "example3"):
        "f7a883d8dae3184fc5acb5d9ce53f1923031db33425f7bc567dcfcf8cf6f80cf",
    ("verify", "example3"):
        "6876776e96a8f63df53a0c7d31ea093a4798a5343002b57974cecc2d57a642df",
    ("check --hl", "example3"):
        "2f5dd2b86308aef65d427d398153492e477d09f8c53db2fc11b7572aa69d4499",
    ("report --json", "CxP1-even"):
        "e58652816ff28e7cee2bd9713f80045063a91ecad79cf215eca289347ef5a17b",
    ("report", "CxP1-even"):
        "a568d14981ae73b119908c35c6d1ddafd601dbcfd3ae95fc2065d2aff16968d5",
    ("verify", "CxP1-even"):
        "e59a53dd03d7fc38ca264833fe7642fd1b37cd7c1198bbf8d63ce38a1ef76da8",
    ("check --hl", "CxP1-even"):
        "60fff274ac0013f990ab6651eacaff202270302af505e1d34f3787db6fa5016b",
    ("report --json", "P-1"):
        "464280bdb4175c26c7647a52d25eccfe97c4ed41971675217ab5a8c58855cc4a",
    ("report", "P-1"):
        "5bee69754f0e5be0e80b6b74c859a4e6cc1be816dd38589be2168826a0b9d729",
    ("verify", "P-1"):
        "4c73d1913c951c542e0656264d77f578e63bf6285c6ab5f7c4b42172596c75d0",
    ("check --hl", "P-1"):
        "8a4bca6b1f9057ddc16908c9a0f0dda07082052e9ea5a919afbed7a12c7fb740",
    ("report --json", "P-2"):
        "38bf13889bb8f7ab287498d5782234d846773e523c4e540539a75e42c65f2bf9",
    ("report", "P-2"):
        "a055d71384c9618bfb41fc7001a2882152deb486c05d20979b89fcb0f2195846",
    ("verify", "P-2"):
        "0acf7fdc60e2c83b33105f2e7d00bf35290d95353aadd2999990de65bbd5e1bc",
    ("check --hl", "P-2"):
        "42ba0f45d45da6d782836fe48c30814da4381949bbcbcfadee224fd0b1a49414",
    ("report --json", "P-3"):
        "69f8ceb30cb3b2da6781eb0739857267c0d0aba414d39399ef5d32335e39ac9d",
    ("report", "P-3"):
        "7a3dbf90e08869c4ed7659248357c178afb4e8f92bcae2ae09177901af5b2490",
    ("verify", "P-3"):
        "f2bb5815372c36e0c10f6517bee52676b1cca8c6551f66e83611ec8dd75b07fd",
    ("check --hl", "P-3"):
        "2ead32f6693fefab48499cf8b3da10a1f69183dce8e97b318545c3964b29fbe6",
    ("report --json", "P-4"):
        "e71d7fcb3c7db2d495bc6ce977eec841146f085273b00b319bafe632e7c5f52f",
    ("report", "P-4"):
        "a85b074bb6062bb484a53cbfa7462441111c51df9da3dd5235ebaabe6b9d1abe",
    ("verify", "P-4"):
        "b55a0a71f3249edd3d619d8a78241bf21453f20e2ab2533921ba1d7f02bac280",
    ("check --hl", "P-4"):
        "111575761dd10781e4c8a3498a6eb24257c90733a790cad1d8448008a6b17ece",
    ("report --json", "P-5"):
        "dbe12bd9a4ad9bad5985ba18d32c92d66a5d6b00d95bd77416532e75b590c37a",
    ("report", "P-5"):
        "e1135f32e48e03687d65b85a1ac66a8e8df1e350463d33efe7c54d92698ff30f",
    ("verify", "P-5"):
        "0d2fd7113e843f003060669ab0f7fb91e76dd2e1ee064cb350576d2ce489e205",
    ("check --hl", "P-5"):
        "3594e9bc5ca29a18da99240c5f6db322f718a23a46882d2275a03678a4111ab8",
    ("report --json", "P-6"):
        "c3c3cc9de88cae09bf20672ce8215ff91fe2066240760858392995fa6193c715",
    ("report", "P-6"):
        "9609be9c414ae8655920a7d9d1a1fefb83e9bd1324e47d85f2a7e71791ae74c3",
    ("verify", "P-6"):
        "950bbb25ad978c15f138395b3ac01e6415602b7174ed1431ff68c8c44ba3419b",
    ("check --hl", "P-6"):
        "7ea1e239a0cb643ccd966187b82222e3c0de91d00c8933ba06334e932dcdce0d",
    ("report --json", "Gr-2-4"):
        "fc0dbfe60fdec928f3022ad26f77df450af03144618790cbd15cd66bd1a42f88",
    ("report", "Gr-2-4"):
        "efd99f2fc96d1b615191d218aa723b21c5f943fcd4c66861525250578dc1e266",
    ("verify", "Gr-2-4"):
        "3da445de1959bf2327a92d4844b2ac757a774d47af3aa8e97969bb8e26bf49c4",
    ("check --hl", "Gr-2-4"):
        "2fa063147ad2cd4286da322a072c5e7bed8e2bb8c731a35d9431b84c65b4f29b",
    ("report --json", "Gr-2-5"):
        "72c950c611f14831aa16297fab60ff49ab1734dbc07df4f9fef0989bcd9934e3",
    ("report", "Gr-2-5"):
        "b6899be1e8807fe8ab4311642c87541092a26a10c45808e65a1345960173ad82",
    ("verify", "Gr-2-5"):
        "c87c277ad9d273a72fd5600b6c24347949435e622c00e2010b44ca5ccc3f6e3c",
    ("check --hl", "Gr-2-5"):
        "754e11e1a488f1379cf63f0e8d013c89236894d6552babb6e378ef2b6ba403ba",
    ("report --json", "P1xP1"):
        "29f010fec43f21c0f99e7e7ca12c4523562cae12eaccc554d3279ba4bb968cef",
    ("report", "P1xP1"):
        "14f575adb6fcd12b822fac2d5f128eecbf36b9912fb415ba3dd12431336d43c4",
    ("verify", "P1xP1"):
        "768cbf641e96890501360ea0cf1476e8756396450e04ce1fc880fdc3b8cf7240",
    ("check --hl", "P1xP1"):
        "183f24f4617228bc09fba9f3e51ee6f69cfe9aecbd062c03367e162be52023a3",
    ("report --json", "P1xP2"):
        "bb841d6e945d288fb7d799cef4f9c18118fbb0ad46ff9f877bfcdfeb2ea7e730",
    ("report", "P1xP2"):
        "cca38f089d56a343b2920dcd82b0575624b160800bdde9a76c794c9406f2420b",
    ("verify", "P1xP2"):
        "7b61c48d089c29c9f948fce750b5c0e805a0f039a69258a0eb40c416ecbc8663",
    ("check --hl", "P1xP2"):
        "c9f1b99cc2f5c030f0137ae8a8fc587685a628e4b1e44a2499318e6797751b94",
    ("report --json", "P3xP3"):
        "f012a38600f07518b06ae53a2f2f0b9aab0c9e85b005dd7c514cb855309dd92f",
    ("report", "P3xP3"):
        "fba0f736d9aa753c314e04f0848c2b5b0a4b4c6c5c3890c0b27aba59b83c6454",
    ("verify", "P3xP3"):
        "a27e819d31fabb476e0b607c0cf070bea57e302c916dd9232f968b6ed139e084",
    ("check --hl", "P3xP3"):
        "485f9b59a123f00fc90d0ecdc58801c8b8c2b131519b746a2692c51feb2c4f1b",
    ("report --json", "P1xP1xP1"):
        "9aa6bc0e93a9b794109ed4e75be4ef98004dff705b0cb4107ca160cf11a086d0",
    ("report", "P1xP1xP1"):
        "40dae922d52fc7bbb12c25cbf432358dbfaca2ed2e55051bffb327ade834cd11",
    ("verify", "P1xP1xP1"):
        "6031d441c1210dd3cb491fef3936c0b6100224f2e9222b7f641ec964fb069df4",
    ("check --hl", "P1xP1xP1"):
        "2661238022dbe1a52615b1052bc240673de4443cbbb3388e5f3a4fd4236e7aa4",
    ("report --json", "Gr-2-4xP1"):
        "79ad868b4f8832787b41c869e27293c109c7344100235a01f4899f12644ebb03",
    ("report", "Gr-2-4xP1"):
        "92f97525f576d882b54d71207943c4e31abad8b609ecdf02202c37fae497dc90",
    ("verify", "Gr-2-4xP1"):
        "497e43d8952a5911a18158d4030d2014256439472a04e365d2db4ee3a0499399",
    ("check --hl", "Gr-2-4xP1"):
        "251de90b9ed05ce22f638004bd3f03c030aae54ad0e47225e65e643b3b70a952",
    ("report --json", "Gr-2-5xP2"):
        "ee7df038bba838a570d6f4a5be4846e856ee130bdefd999a3214df850173d499",
    ("report", "Gr-2-5xP2"):
        "917e046f167aee4231afdb328a0b46ab0a70dd437ec13fb3de7738857f90babd",
    ("verify", "Gr-2-5xP2"):
        "0eb4b9f3d0c29ea23cf2077f1ad697091e8ccc5a9c4278025d5ea972bb991e93",
    ("check --hl", "Gr-2-5xP2"):
        "125c2f7d599b37162f7003c48be7a802fff4b1ff4e3cfda6df45717dc45037e8",
    ("report --json", "P1xP1xP1xP1xP1xP1xP1xP1"):
        "96108fa42b594fb57963a406133d095137ec42a207be567e8f652d81a8d9d740",
    ("report", "P1xP1xP1xP1xP1xP1xP1xP1"):
        "4b025a430c5f76503055ff5b33f33b59ec1b09ecad9638c251bef6404602180f",
    ("verify", "P1xP1xP1xP1xP1xP1xP1xP1"):
        "bae2e03c1c659dddc0d5c23272a46714f95b154eb3b7e32c6c3b07ac7944b631",
    ("check --hl", "P1xP1xP1xP1xP1xP1xP1xP1"):
        "75c3d772ab6d58d3023250bbb3a9cb897c908b9ba093a4038551b3fa2fee9da8",
    ("report --json", "Gr-3-8"):
        "ef1781b54e652375ab68e804081623980fe313a8eab859cd931019138657fd51",
    ("report", "Gr-3-8"):
        "16823ae5bce2c57144df142a07d7edcf50150bb137fa3de5f05dcbdfd06ac3d0",
    ("verify", "Gr-3-8"):
        "25a2316f2cdf0717cd6bf6bf57301b30cc421d4f0a42c2e7a589276e65b3aa0c",
    ("check --hl", "Gr-3-8"):
        "7fb98d2867f346e91035eb655b854e18df502dc5cfb4069c758a032ebf7c8741",
    ("report --json", "example3xP1"):
        "1952553a2041bb3f4121fa57f8f76c84995c2523a61288f4a448c854d1297e13",
    ("report", "example3xP1"):
        "71b014cb7c0b9906304d76ae917862342e55fe51a9c8c450646d370c5f12af6b",
    ("verify", "example3xP1"):
        "55e1fc5c12ad818f470d90bd686cf220d122a414d15c71e66e480bf5fc1784c4",
    ("check --hl", "example3xP1"):
        "e58964122bf162f459991ea9817deab416d38d642115890dc3a5326812990e96",
    ("report --json", "Gr-2-5xGr-2-5xP1"):
        "547c62dc7c0acd2d65ce250c91820c94a6670e147c30b6a78566df47eab250c0",
    ("report", "Gr-2-5xGr-2-5xP1"):
        "abde2bffee7c63295a30b5bb6cbb6f25bea092c6c1abd7e8f85800d6425d54c0",
    ("verify", "Gr-2-5xGr-2-5xP1"):
        "95fc0fbfa9f3fc81e21e909a1e83682bd361a601e963951acede46125a1ac739",
    ("check --hl", "Gr-2-5xGr-2-5xP1"):
        "52a6dddbe5f0c12c2eb748e0ecd48fb5adac5a8ac08dd736f82784099c5e29bd",
    ("report --json", "example2xP1xP1"):
        "48a9384085f6ef452a6e9c84568e8c8588de95fd32cbd7062ba7794731fd2794",
    ("report", "example2xP1xP1"):
        "a23a88ef121c7e0341f3d161f44a88dfb26acee75b6376717cf4290e506783d9",
    ("verify", "example2xP1xP1"):
        "0b8bb0eca3288eb9dffd08726d64a8f104a7ace5bd9f54812b709b5aba807bcc",
    ("check --hl", "example2xP1xP1"):
        "40656eccc0588b96a9d281608d74e547da876abe216be55720f81703065b9c58",
}


def test_the_golden_cases_are_every_command_on_every_name():
    assert len(NAMES) == 23
    assert set(DIGESTS) == {(c, n) for c in COMMANDS for n in NAMES}


@pytest.mark.parametrize("command,name", list(DIGESTS))
def test_output_is_byte_identical(command, name, capsys):
    cmd, *flags = command.split()
    code = run([cmd, name, *flags])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{out}exit {code}\n".encode()).hexdigest()
    assert digest == DIGESTS[(command, name)], out
